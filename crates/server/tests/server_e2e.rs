//! End-to-end loopback tests: a real server on an ephemeral port, driven
//! through real sockets, plus the cache-vs-cold determinism property on
//! randomly drawn sweep requests.

use mpsoc_platform::service::{self, SweepRequest};
use mpsoc_platform::Topology;
use mpsoc_server::loadgen::{self, Client, Pacing, RunConfig};
use mpsoc_server::server::MAX_LINE_BYTES;
use mpsoc_server::{Server, ServerConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Binds a server on an ephemeral loopback port and runs it on a
/// background thread. Returns the address and the join handle; tests must
/// send a shutdown request and join.
fn start_server(cache_capacity: usize) -> (String, std::thread::JoinHandle<()>) {
    let config = ServerConfig {
        cache_capacity,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", &config).expect("binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serves"));
    (addr, handle)
}

/// Like [`start_server`], but with an explicit full config (disk spill
/// directory, coalescing window, …).
fn start_server_with(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", &config).expect("binds");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("serves"));
    (addr, handle)
}

fn shutdown(addr: &str) {
    let mut client = Client::connect(addr).expect("connects");
    let line = client
        .roundtrip("{\"cmd\":\"shutdown\"}")
        .expect("responds");
    assert!(line.contains("\"shutdown\":true"), "{line}");
}

fn field_u64(line: &str, field: &str) -> u64 {
    let tag = format!("\"{field}\":");
    let pos = line
        .find(&tag)
        .unwrap_or_else(|| panic!("{field} in {line}"));
    let rest = &line[pos + tag.len()..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{field} in {line}"))
}

#[test]
fn protocol_flow_over_a_real_socket() {
    let (addr, handle) = start_server(4);
    let mut client = Client::connect(&addr).expect("connects");

    // Liveness.
    let pong = client.roundtrip("{\"cmd\":\"ping\"}").expect("responds");
    assert!(pong.contains("\"pong\":true"), "{pong}");

    // Malformed requests produce error responses, not disconnects.
    for bad in ["not json", "{\"cmd\":\"reboot\"}", "{\"protocol\":\"pci\"}"] {
        let line = client.roundtrip(bad).expect("responds");
        assert!(line.contains("\"status\":\"error\""), "{bad} -> {line}");
    }

    // First simulate request: a cold miss.
    let req = "{\"id\":1,\"topology\":\"distributed\",\"scale\":1,\"wait_states\":8}";
    let first = client.roundtrip(req).expect("responds");
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    let cycles = field_u64(&first, "exec_cycles");

    // The duplicate is a hit and byte-identical in every result field.
    let second = client
        .roundtrip(req.replace("\"id\":1", "\"id\":2").as_str())
        .expect("responds");
    assert!(second.contains("\"cache\":\"hit\""), "{second}");
    assert_eq!(field_u64(&second, "exec_cycles"), cycles);
    assert_eq!(
        field_u64(&first, "base_cycles"),
        field_u64(&second, "base_cycles")
    );

    // The hit matches the service layer's cold reference exactly.
    let reference = service::cold_point(&SweepRequest {
        scale: 1,
        wait_states: 8,
        ..SweepRequest::default()
    })
    .expect("cold run");
    assert_eq!(cycles, reference, "served result must equal a cold run");

    // An array axis fans out in order and reuses the same warm state.
    let sweep = client
        .roundtrip(
            "{\"id\":3,\"topology\":\"distributed\",\"scale\":1,\"wait_states\":[1,8],\"jobs\":2}",
        )
        .expect("responds");
    assert!(sweep.contains("\"cache\":\"hit\""), "{sweep}");
    assert!(
        sweep.contains(&format!("{{\"wait_states\":8,\"exec_cycles\":{cycles}}}")),
        "sweep must contain the point's exact cell: {sweep}"
    );

    // Stats reflect the traffic.
    let stats = client.roundtrip("{\"cmd\":\"stats\"}").expect("responds");
    assert!(field_u64(&stats, "hits") >= 2, "{stats}");
    assert_eq!(field_u64(&stats, "misses"), 1, "{stats}");
    assert_eq!(field_u64(&stats, "entries"), 1, "{stats}");

    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

#[test]
fn concurrent_duplicates_share_one_warm_up() {
    let (addr, handle) = start_server(4);
    let addr = Arc::new(addr);
    let mut lanes = Vec::new();
    for id in 0..4 {
        let addr = Arc::clone(&addr);
        lanes.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connects");
            let line = client
                .roundtrip(&format!(
                    "{{\"id\":{id},\"topology\":\"collapsed\",\"scale\":1,\"wait_states\":4}}"
                ))
                .expect("responds");
            assert!(line.contains("\"status\":\"ok\""), "{line}");
            field_u64(&line, "exec_cycles")
        }));
    }
    let results: Vec<u64> = lanes.into_iter().map(|l| l.join().expect("lane")).collect();
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");

    let mut client = Client::connect(&addr).expect("connects");
    let stats = client.roundtrip("{\"cmd\":\"stats\"}").expect("responds");
    assert_eq!(
        field_u64(&stats, "misses"),
        1,
        "concurrent misses must collapse onto one warm-up: {stats}"
    );
    assert_eq!(field_u64(&stats, "hits"), 3, "{stats}");

    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

#[test]
fn concurrent_distinct_cells_coalesce_behind_one_warm_up() {
    let (addr, handle) = start_server_with(ServerConfig {
        cache_capacity: 4,
        coalesce_window: std::time::Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let addr = Arc::new(addr);
    let cells = [1u32, 2, 4, 8, 16, 32];
    let mut lanes = Vec::new();
    for (id, &ws) in cells.iter().enumerate() {
        let addr = Arc::clone(&addr);
        lanes.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connects");
            let line = client
                .roundtrip(&format!(
                    "{{\"id\":{id},\"topology\":\"distributed\",\"scale\":1,\"wait_states\":{ws}}}"
                ))
                .expect("responds");
            assert!(line.contains("\"status\":\"ok\""), "{line}");
            (ws, field_u64(&line, "exec_cycles"))
        }));
    }
    let results: Vec<(u32, u64)> = lanes.into_iter().map(|l| l.join().expect("lane")).collect();

    // Six concurrent requests for six *distinct* cells of one warm key:
    // one warm-up total. (A straggler that misses the coalescing window
    // serves solo from the cache, which still runs no warm-up.)
    let mut client = Client::connect(&addr).expect("connects");
    let stats = client.roundtrip("{\"cmd\":\"stats\"}").expect("responds");
    assert_eq!(
        field_u64(&stats, "warm_ups"),
        1,
        "distinct cells must batch behind one warm-up: {stats}"
    );

    // And every batched cell is byte-identical to its isolated cold run.
    for (ws, cycles) in results {
        let reference = service::cold_point(&SweepRequest {
            topology: Topology::Distributed,
            scale: 1,
            wait_states: ws,
            ..SweepRequest::default()
        })
        .expect("cold run");
        assert_eq!(cycles, reference, "coalesced cell ws={ws} must match cold");
    }
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

#[test]
fn restarted_server_answers_first_request_from_the_disk_spill() {
    let dir = std::env::temp_dir().join(format!("mpsn-restart-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        cache_capacity: 4,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle) = start_server_with(config.clone());
    let mut client = Client::connect(&addr).expect("connects");
    let req = "{\"id\":1,\"topology\":\"collapsed\",\"scale\":1,\"wait_states\":8}";
    let first = client.roundtrip(req).expect("responds");
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    let cycles = field_u64(&first, "exec_cycles");
    shutdown(&addr);
    handle.join().expect("server exits cleanly");

    // Relaunch on the same spill directory: the first request is answered
    // from the disk fork — a hit, byte-identical, zero warm-ups run.
    let (addr, handle) = start_server_with(config);
    let mut client = Client::connect(&addr).expect("connects");
    let warm = client.roundtrip(req).expect("responds");
    assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
    assert_eq!(field_u64(&warm, "exec_cycles"), cycles);
    let stats = client.roundtrip("{\"cmd\":\"stats\"}").expect("responds");
    assert_eq!(field_u64(&stats, "warm_ups"), 0, "{stats}");
    assert_eq!(field_u64(&stats, "spill_loads"), 1, "{stats}");
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_line_is_an_error_not_an_abort() {
    let (addr, handle) = start_server(4);
    let mut client = Client::connect(&addr).expect("connects");
    let line = client
        .roundtrip(&"[".repeat(200_000))
        .expect("responds instead of overflowing the stack");
    assert!(line.contains("\"status\":\"error\""), "{line}");
    assert!(line.contains("nesting"), "{line}");
    let pong = client.roundtrip("{\"cmd\":\"ping\"}").expect("responds");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

#[test]
fn oversized_line_gets_an_error_then_a_close() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let (addr, handle) = start_server(4);
    let stream = TcpStream::connect(&addr).expect("connects");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clones");
    // A ping, then more than the line limit without a newline. The server
    // stops reading once the limit is passed, so write from a thread and
    // ignore the broken pipe that follows the close.
    let sender = std::thread::spawn(move || {
        let mut bytes = b"{\"cmd\":\"ping\"}\n".to_vec();
        bytes.resize(bytes.len() + MAX_LINE_BYTES + 4096, b' ');
        let _ = writer.write_all(&bytes);
    });
    let mut reader = BufReader::new(stream);
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("pong");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    let mut error = String::new();
    reader.read_line(&mut error).expect("error response");
    assert!(error.contains("\"status\":\"error\""), "{error}");
    assert!(error.contains("exceeds"), "{error}");
    let mut rest = String::new();
    assert!(
        matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
        "the connection must close after the error, got {rest:?}"
    );
    sender.join().expect("sender");

    // The server itself keeps serving.
    let mut client = Client::connect(&addr).expect("connects");
    let pong = client.roundtrip("{\"cmd\":\"ping\"}").expect("responds");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

#[test]
fn loadgen_closed_loop_reconstructs_the_table_with_hits() {
    let (addr, handle) = start_server(4);
    let report = loadgen::run(&RunConfig {
        addr: addr.clone(),
        requests: 16,
        pacing: Pacing::Closed { connections: 2 },
        scale: 1,
        ..RunConfig::default()
    })
    .expect("run agrees");
    assert_eq!(report.responses, 16);
    assert!(report.hits > 0, "duplicate-heavy mix must hit the cache");
    assert_eq!(report.hits + report.misses, report.responses);
    let table = report.fig4_table().expect("full coverage");
    let reference = mpsoc_platform::experiments::fig4(1, SweepRequest::default().seed)
        .expect("cold sweep")
        .to_string();
    assert_eq!(
        table.to_string(),
        reference,
        "served table must be byte-identical to the one-shot experiment"
    );
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

#[test]
fn loadgen_open_loop_paces_and_agrees() {
    let (addr, handle) = start_server(4);
    let report = loadgen::run(&RunConfig {
        addr: addr.clone(),
        requests: 14,
        pacing: Pacing::Open {
            requests_per_sec: 200.0,
        },
        scale: 1,
        ..RunConfig::default()
    })
    .expect("run agrees");
    assert_eq!(report.responses, 14);
    assert!(report.hits > 0);
    shutdown(&addr);
    handle.join().expect("server exits cleanly");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Forking a cached warm state is byte-identical to a cold run for
    /// randomly drawn sweep requests — the cache can never change results,
    /// only wall-clock time.
    #[test]
    fn fork_from_cache_matches_cold_across_random_configs(
        topology_bit in 0u64..2,
        ws_exp in 0u64..6,
        seed in 0u64..3,
    ) {
        let req = SweepRequest {
            topology: if topology_bit == 0 {
                Topology::Collapsed
            } else {
                Topology::Distributed
            },
            wait_states: 1 << ws_exp,
            scale: 1,
            seed: 0x0dab + seed,
            ..SweepRequest::default()
        };
        let cold = service::cold_point(&req).expect("cold run");
        // One warm-up, two forks — exactly what the server's cache does.
        let warm = service::warm_state(&req).expect("warm state");
        let first = service::serve_point(&req, &warm).expect("fork");
        let second = service::serve_point(&req, &warm).expect("fork");
        prop_assert_eq!(first, cold);
        prop_assert_eq!(second, cold);
    }
}

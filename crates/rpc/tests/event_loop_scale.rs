//! The readiness loop at scale: a thousand idle connections must cost
//! no threads and no CPU, and connect latency must be event-driven —
//! not quantised by the old 10 ms accept-poll tick.

use rpc::{proto, RpcClient, RpcConfig, RpcServer};
use serve::{BatchPolicy, EngineConfig, EngineFactory, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const TRAIN: &str = r#"
name: t
layer {
  name: d
  type: Data
  batch: 4
  top: data
  top: label
}
layer {
  name: ip
  type: InnerProduct
  num_output: 3
  seed: 5
  bottom: data
  top: ip
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: ip
  bottom: label
  top: prob
}
"#;

fn start_stack(cfg: RpcConfig) -> (Server<f32>, RpcServer, obs::Registry) {
    let spec = net::NetSpec::parse(TRAIN).unwrap();
    let factory = EngineFactory::<f32>::new(
        &spec,
        &blob::Shape::from(vec![6usize]),
        &EngineConfig {
            max_batch: 4,
            n_threads: 1,
        },
        None,
    )
    .unwrap();
    let server = Server::start(factory.build_n(1).unwrap(), BatchPolicy::default()).unwrap();
    let reg = obs::Registry::new();
    let rpc = RpcServer::start(
        "127.0.0.1:0",
        server.client(),
        server.output_len(),
        cfg,
        &reg,
    )
    .unwrap();
    (server, rpc, reg)
}

/// Serializes the tests of this file: each starts its own server stack, and
/// the thread-count test must see exactly one. Held for a whole test.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed sibling poisons the lock; the guarded state is `()`.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Threads of the serving stack in this process: the tasks under
/// `/proc/self/task` whose name starts `rpc-` or `serve-` (the event loop,
/// the batch workers). A thread spawned without a name
/// inherits its creator's, so a per-connection thread started by any of
/// them is counted too — while the test harness's own threads, which come
/// and go as sibling tests start and finish, are not.
fn server_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("rpc-") || comm.starts_with("serve-"))
        .count()
}

/// [`server_thread_count`] once it holds still. A thread names itself only
/// when it first runs, so right after `start_stack` the count is still
/// rising; taking the baseline then failed whenever this test ran first.
fn settled_thread_count() -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = server_thread_count();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = server_thread_count();
        if (now == last && now >= 2) || Instant::now() > deadline {
            return now;
        }
        last = now;
    }
}

/// Complete the handshake on a raw socket so the connection is Open.
fn handshake(s: &mut TcpStream) {
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = [0u8; proto::SERVER_HELLO_LEN];
    s.read_exact(&mut hello).unwrap();
    let h = proto::decode_server_hello(&hello).unwrap();
    assert_eq!(h.status, proto::HELLO_OK);
    s.write_all(&proto::encode_client_hello()).unwrap();
}

/// A thousand established, idle connections: zero additional threads
/// (the old design spent one handler thread per active connection and a
/// thread per accept), and new work on a fresh connection still answers.
#[test]
fn a_thousand_idle_connections_cost_no_threads() {
    let _serial = serial();
    let (server, rpc, _reg) = start_stack(RpcConfig {
        max_connections: 1200,
    });
    let baseline = settled_thread_count();
    assert!(baseline >= 2, "event loop and a batch worker are running");

    let mut idle = Vec::with_capacity(1000);
    for _ in 0..1000 {
        let mut s = TcpStream::connect(rpc.local_addr()).unwrap();
        handshake(&mut s);
        idle.push(s);
    }
    assert_eq!(
        server_thread_count(),
        baseline,
        "idle connections must not grow the thread count"
    );

    // The loop still has capacity for real work among the parked crowd.
    let mut client = RpcClient::connect(rpc.local_addr()).unwrap();
    let probs = client.infer(&[0.2f32; 6]).unwrap();
    assert_eq!(probs.len(), 3);
    assert_eq!(server_thread_count(), baseline);

    drop(idle);
    rpc.shutdown();
    server.shutdown();
}

/// Connect-to-hello latency is event-driven. The old acceptor slept in
/// 10 ms ticks, so the *median* handshake ate ~5 ms of pure waiting;
/// the readiness loop answers as soon as the kernel reports the
/// listener readable. Median over repeated probes keeps one slow
/// scheduler hiccup from failing the run.
#[test]
fn connect_to_hello_latency_is_not_tick_quantised() {
    let _serial = serial();
    let (server, rpc, _reg) = start_stack(RpcConfig::default());
    // Warm-up: first accept pays one-time lazy costs.
    drop(RpcClient::connect(rpc.local_addr()).unwrap());

    let mut lat = Vec::with_capacity(25);
    for _ in 0..25 {
        let t0 = Instant::now();
        let mut s = TcpStream::connect(rpc.local_addr()).unwrap();
        let mut hello = [0u8; proto::SERVER_HELLO_LEN];
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.read_exact(&mut hello).unwrap();
        lat.push(t0.elapsed());
        drop(s);
    }
    lat.sort();
    let median = lat[lat.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect-to-hello took {median:?}; expected well under the \
         old 10 ms poll tick"
    );

    rpc.shutdown();
    server.shutdown();
}

/// A parked server must sleep, not tick: with connections idle and no
/// deadlines pending, the poll timeout is infinite, so the wakeup
/// counter stays flat.
#[test]
fn idle_loop_does_not_spin() {
    let _serial = serial();
    let (server, rpc, reg) = start_stack(RpcConfig::default());
    let mut conns: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut s = TcpStream::connect(rpc.local_addr()).unwrap();
            handshake(&mut s);
            s
        })
        .collect();
    // Let the handshake wakeups settle before sampling.
    std::thread::sleep(Duration::from_millis(100));
    let wakeups = reg.counter("rpc.loop_wakeups");
    let before = wakeups.get();
    std::thread::sleep(Duration::from_millis(400));
    let idle_delta = wakeups.get() - before;
    assert!(
        idle_delta <= 2,
        "idle event loop woke {idle_delta} times in 400 ms; it should sleep"
    );

    // And it is asleep, not wedged: traffic on a parked connection is
    // answered immediately.
    let mut p = Vec::new();
    proto::write_f32s(&mut p, &[0.3f32; 6]);
    let s = &mut conns[0];
    s.write_all(&proto::encode_header(
        proto::REQ_INFER,
        7,
        0,
        p.len() as u32,
    ))
    .unwrap();
    s.write_all(&p).unwrap();
    let mut rhead = [0u8; proto::FRAME_HEADER_LEN];
    s.read_exact(&mut rhead).unwrap();
    let rh = proto::decode_header(&rhead).unwrap();
    assert_eq!(rh.kind, proto::RESP_PROBS);
    assert_eq!(rh.id, 7);

    drop(conns);
    rpc.shutdown();
    server.shutdown();
}

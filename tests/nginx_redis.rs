//! End-to-end application tests: NGINX worker scaling and Redis
//! fork-based snapshots (§7.1).

use std::net::Ipv4Addr;

use nephele::apps::{NginxApp, RedisApp, DUMP_FILE, HTTP_PORT, REDIS_PORT};
use nephele::netmux::SockEvent;
use nephele::sim_core::DomId;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{ClonePolicy, DeviceClass, Platform, PlatformConfig};

const SERVICE_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn web_cfg(name: &str) -> DomainConfig {
    DomainConfig::builder(name)
        .memory_mib(16)
        .vif(SERVICE_IP)
        .max_clones(8)
        .build()
}

/// Issues one HTTP request from the host and returns the response body.
fn http_get(p: &mut Platform, port: u16) -> Option<String> {
    let conn = p.host_tcp_connect(SERVICE_IP, port);
    p.take_host_events();
    p.host_tcp_send(conn, b"GET / HTTP/1.1\r\n\r\n".to_vec());
    let resp = p.take_host_events().into_iter().find_map(|e| match e {
        SockEvent::TcpData { conn: c, data } if c == conn => Some(data),
        _ => None,
    });
    p.host_tcp_close(conn);
    resp.map(|d| String::from_utf8_lossy(&d).to_string())
}

#[test]
fn nginx_forks_workers_and_serves_through_bond() {
    let mut p = Platform::new(PlatformConfig::small());
    let master = p
        .launch(
            &web_cfg("nginx"),
            &KernelImage::unikraft("nginx"),
            Box::new(NginxApp::new(4)),
        )
        .unwrap();

    // Four workers were cloned and enslaved to the bond.
    assert_eq!(p.hv.domain(master).unwrap().children.len(), 4);
    assert_eq!(p.snapshot().mux_members, 4);

    // Many requests; every one must be answered despite shared MAC/IP.
    let mut answered = 0;
    for _ in 0..40 {
        if let Some(body) = http_get(&mut p, HTTP_PORT) {
            assert!(body.contains("200 OK"));
            assert!(body.contains("nephele-nginx"));
            answered += 1;
        }
    }
    assert_eq!(answered, 40);

    // Workers shared the load: every worker served at least one request.
    let workers: Vec<DomId> =
        p.hv.domain(master)
            .unwrap()
            .children
            .values()
            .copied()
            .collect();
    let mut total = 0u64;
    for w in &workers {
        let served = p
            .with_app::<NginxApp, u64>(*w, |app, _env| app.served)
            .unwrap();
        assert!(served > 0, "worker {w} served nothing");
        total += served;
    }
    assert_eq!(total, 40);
}

#[test]
fn nginx_worker_pinning() {
    let mut p = Platform::new(PlatformConfig::small());
    let master = p
        .launch(
            &web_cfg("nginx"),
            &KernelImage::unikraft("nginx"),
            Box::new(NginxApp::new(3)),
        )
        .unwrap();
    let workers: Vec<DomId> =
        p.hv.domain(master)
            .unwrap()
            .children
            .values()
            .copied()
            .collect();
    let mut cores: Vec<usize> = workers
        .iter()
        .map(|w| p.hv.domain(*w).unwrap().vcpus[0].affinity.unwrap())
        .collect();
    cores.sort_unstable();
    cores.dedup();
    assert_eq!(cores.len(), 3, "each worker pinned to a distinct core");
}

fn redis_platform() -> (Platform, DomId) {
    let mut p = Platform::new(PlatformConfig::small());
    // Redis clones do not need network devices (§7.1).
    p.daemon.config.policy = ClonePolicy::all().set(DeviceClass::Vif, false);
    let cfg = DomainConfig::builder("redis")
        .memory_mib(64)
        .vif(SERVICE_IP)
        .p9fs("/export/redis")
        .max_clones(16)
        .build();
    let dom = p
        .launch(&cfg, &KernelImage::unikraft("redis"), Box::new(RedisApp::new()))
        .unwrap();
    (p, dom)
}

#[test]
fn redis_snapshot_captures_fork_point_state() {
    let (mut p, dom) = redis_platform();

    // Populate, then snapshot.
    p.with_app::<RedisApp, ()>(dom, |app, env| {
        app.mass_insert(env, 100, 32);
        app.set(env, "answer", b"42");
    })
    .unwrap();
    p.with_app::<RedisApp, ()>(dom, |app, env| app.bgsave(env)).unwrap();

    // The saver child ran, wrote the dump and shut down.
    let saves = p
        .with_app::<RedisApp, u64>(dom, |app, _| app.saves_completed)
        .unwrap();
    assert_eq!(saves, 1);
    assert_eq!(
        p.hv.domain(dom).unwrap().children.len(),
        0,
        "saver exited after dumping"
    );

    let dump = p.dm.fs.read("/export/redis/dump.rdb", 0, 1 << 20).unwrap();
    let text = String::from_utf8_lossy(&dump);
    assert!(text.contains("answer=42"));
    assert!(text.contains("key:00000000="));
    assert_eq!(text.lines().count(), 101);

    // Post-fork mutations must not appear in a *prior* snapshot: save
    // again after mutating and compare.
    p.with_app::<RedisApp, ()>(dom, |app, env| {
        app.set(env, "answer", b"43");
        app.bgsave(env);
    })
    .unwrap();
    let dump2 = p.dm.fs.read("/export/redis/dump.rdb", 0, 1 << 20).unwrap();
    assert!(String::from_utf8_lossy(&dump2).contains("answer=43"));
}

#[test]
fn redis_commands_over_tcp() {
    let (mut p, _dom) = redis_platform();
    let conn = p.host_tcp_connect(SERVICE_IP, REDIS_PORT);
    p.take_host_events();

    p.host_tcp_send(conn, b"SET color blue".to_vec());
    p.host_tcp_send(conn, b"GET color".to_vec());
    p.host_tcp_send(conn, b"DBSIZE".to_vec());
    let replies: Vec<String> = p
        .take_host_events()
        .into_iter()
        .filter_map(|e| match e {
            SockEvent::TcpData { data, .. } => Some(String::from_utf8_lossy(&data).to_string()),
            _ => None,
        })
        .collect();
    assert!(replies.iter().any(|r| r.contains("+OK")));
    assert!(replies.iter().any(|r| r.contains("blue")));
    assert!(replies.iter().any(|r| r.contains(":1")));
}

#[test]
fn redis_values_survive_in_guest_memory_after_save() {
    let (mut p, dom) = redis_platform();
    p.with_app::<RedisApp, ()>(dom, |app, env| {
        app.mass_insert(env, 50, 64);
        app.bgsave(env);
    })
    .unwrap();
    // After the COW snapshot, the parent still reads its own values.
    let ok = p
        .with_app::<RedisApp, bool>(dom, |app, env| {
            (0..50).all(|i| {
                app.get(env, &format!("key:{i:08}"))
                    .map(|v| v.len() == 64)
                    .unwrap_or(false)
            })
        })
        .unwrap();
    assert!(ok);
    let _ = DUMP_FILE;
}

//! Redis-style fork-based snapshots with unikernel clones (§7.1).
//!
//! BGSAVE forks the serving VM; the clone serializes the fork-point state
//! to the shared 9pfs root while the parent keeps serving — the exact COW
//! snapshot semantics Redis relies on.
//!
//! Run with: `cargo run --release --example redis_snapshot`

use std::net::Ipv4Addr;

use nephele::apps::RedisApp;
use nephele::toolstack::{DomainConfig, KernelImage};
use nephele::{ClonePolicy, DeviceClass, Platform, PlatformConfig};

fn main() {
    // Redis clones do not need network devices — xencloned clones only
    // what is needed (the paper's I/O-cloning optimization).
    let mut platform = Platform::new(PlatformConfig::default());
    platform.daemon.config.policy = ClonePolicy::all().set(DeviceClass::Vif, false);

    let config = DomainConfig::builder("redis")
        .memory_mib(64)
        .vif(Ipv4Addr::new(10, 0, 0, 2))
        .p9fs("/export/redis")
        .max_clones(16)
        .build();
    let redis = platform
        .launch(&config, &KernelImage::unikraft("redis"), Box::new(RedisApp::new()))
        .expect("boot");

    // Populate the in-memory database (values live in real guest pages).
    platform
        .with_app::<RedisApp, ()>(redis, |app, env| {
            app.set(env, "answer", b"42");
            app.mass_insert(env, 1000, 32);
            println!("inserted {} keys", app.key_count());
        })
        .unwrap();

    // BGSAVE: fork a saver clone.
    let t0 = platform.clock.now();
    platform
        .with_app::<RedisApp, ()>(redis, |app, env| app.bgsave(env))
        .unwrap();
    println!("background save completed in {} (virtual)", platform.clock.now().since(t0));

    // The parent kept its state; the dump holds the fork-point snapshot.
    let dump = platform.dm.fs.read("/export/redis/dump.rdb", 0, 1 << 20).unwrap();
    let text = String::from_utf8_lossy(&dump);
    println!("dump.rdb: {} bytes, {} entries", dump.len(), text.lines().count());
    println!("first line: {}", text.lines().next().unwrap());
    assert!(text.contains("answer=42"));

    // Mutations after the fork don't retroactively change a snapshot.
    platform
        .with_app::<RedisApp, ()>(redis, |app, env| {
            app.set(env, "answer", b"43");
            app.bgsave(env);
        })
        .unwrap();
    let dump2 = platform.dm.fs.read("/export/redis/dump.rdb", 0, 1 << 20).unwrap();
    assert!(String::from_utf8_lossy(&dump2).contains("answer=43"));
    println!("second snapshot reflects the new value; parent never stopped serving");
}

//! Micro-benchmarks for Xenstore: basic requests, and the `xs_clone`
//! request against its deep-copy equivalent (the mechanism behind the
//! Fig. 4 gap).

use testkit::bench::Bench;

use nephele::sim_core::{Clock, CostModel, DomId};
use nephele::xenstore::{XsCloneOp, Xenstore};

fn fresh_store() -> Xenstore {
    Xenstore::new(Clock::new(), std::rc::Rc::new(CostModel::free()))
}

fn populate_device_dir(xs: &mut Xenstore, dom: u32) {
    let f = format!("/local/domain/{dom}/device/vif/0");
    for (k, v) in [
        ("backend", format!("/local/domain/0/backend/vif/{dom}/0")),
        ("backend-id", "0".into()),
        ("mac", "00:16:3e:00:00:01".into()),
        ("handle", "0".into()),
        ("tx-ring-ref", "1022".into()),
        ("rx-ring-ref", "1023".into()),
        ("state", "4".into()),
    ] {
        xs.write(DomId::DOM0, &format!("{f}/{k}"), &v).unwrap();
    }
}

fn bench_requests(c: &mut Bench) {
    let mut g = c.benchmark_group("xenstore");
    g.bench_function("write", |b| {
        let mut xs = fresh_store();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            xs.write(DomId::DOM0, &format!("/tool/k{}", i % 4096), "v").unwrap();
        });
    });
    g.bench_function("read", |b| {
        let mut xs = fresh_store();
        xs.write(DomId::DOM0, "/tool/key", "value").unwrap();
        b.iter(|| xs.read(DomId::DOM0, "/tool/key").unwrap());
    });
    g.finish();
}

/// Populates `/local/domain/3/device/vif/{0..dirs}` with `fanout` entries
/// each, so the store holds roughly `dirs * fanout` entries.
fn populate_big_store(xs: &mut Xenstore, dirs: u32, fanout: u32) {
    for d in 0..dirs {
        for k in 0..fanout {
            xs.write(
                DomId::DOM0,
                &format!("/local/domain/3/device/vif/{d}/e{k}"),
                "/local/domain/3/x",
            )
            .unwrap();
        }
    }
}

fn bench_xs_clone(c: &mut Bench) {
    let mut g = c.benchmark_group("xs_clone");
    g.bench_function("xs_clone_big_store", |b| {
        // ~10k entries, source directory with fanout 64. Cloning onto the
        // same destination every iteration keeps the store size stable.
        let mut xs = fresh_store();
        populate_big_store(&mut xs, 156, 64);
        b.iter(|| {
            xs.xs_clone(
                DomId::DOM0,
                XsCloneOp::Device,
                DomId(3),
                DomId(9),
                &xs.subtree("/local/domain/3/device/vif/0"),
                "/local/domain/9/device/vif/0",
            )
            .unwrap();
        });
    });
    g.bench_function("xs_clone_device_dir", |b| {
        let mut xs = fresh_store();
        populate_device_dir(&mut xs, 3);
        let mut child = 100u32;
        b.iter(|| {
            child += 1;
            xs.xs_clone(
                DomId::DOM0,
                XsCloneOp::Device,
                DomId(3),
                DomId(child),
                &xs.subtree("/local/domain/3/device/vif/0"),
                &format!("/local/domain/{child}/device/vif/0"),
            )
            .unwrap();
        });
    });
    g.bench_function("deep_copy_device_dir", |b| {
        let mut xs = fresh_store();
        populate_device_dir(&mut xs, 3);
        let mut child = 100u32;
        b.iter(|| {
            child += 1;
            // One read + one write request per entry, client-side rewrite.
            let keys = xs.directory(DomId::DOM0, "/local/domain/3/device/vif/0").unwrap();
            for k in keys {
                let v = xs
                    .read(DomId::DOM0, &format!("/local/domain/3/device/vif/0/{k}"))
                    .unwrap();
                let v = v.replace("/3/", &format!("/{child}/"));
                xs.write(
                    DomId::DOM0,
                    &format!("/local/domain/{child}/device/vif/0/{k}"),
                    &v,
                )
                .unwrap();
            }
        });
    });
    g.finish();
}

fn main() {
    let mut c = Bench::new("xenstore_ops");
    bench_requests(&mut c);
    bench_xs_clone(&mut c);
    c.finish();
}

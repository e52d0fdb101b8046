//! Micro-benchmarks for the data-path components: bond slave selection,
//! OVS group selection, shared-ring transfer, the mini TCP stack and the
//! tinyalloc guest allocator.

use std::net::Ipv4Addr;

use testkit::bench::Bench;

use nephele::devices::ring::SharedRing;
use nephele::guest::TinyAlloc;
use nephele::netmux::{
    Bond,
    CloneMux,
    IfaceId,
    MacAddr,
    NetStack,
    Packet,
    SelectGroup, //
};
use nephele::sim_core::Pfn;

fn pkt(port: u16) -> Packet {
    Packet::udp(
        MacAddr::xen(1, 0),
        MacAddr::xen(2, 0),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 1),
        port,
        7,
        vec![0u8; 64],
    )
}

fn bench_mux(c: &mut Bench) {
    let mut g = c.benchmark_group("mux");
    g.bench_function("bond_select_1000_slaves", |b| {
        let mut bond = Bond::new();
        for i in 0..1000 {
            bond.add_member(IfaceId(i));
        }
        let mut port = 0u16;
        b.iter(|| {
            port = port.wrapping_add(1);
            bond.select(&pkt(port))
        });
    });
    g.bench_function("ovs_select_1000_buckets", |b| {
        let mut grp = SelectGroup::new();
        for i in 0..1000 {
            grp.add_member(IfaceId(i));
        }
        let mut port = 0u16;
        b.iter(|| {
            port = port.wrapping_add(1);
            grp.select(&pkt(port))
        });
    });
    g.finish();
}

fn bench_ring(c: &mut Bench) {
    c.bench_function("shared_ring_push_pop", |b| {
        let mut ring = SharedRing::new(Pfn(1), 256);
        b.iter(|| {
            ring.push(pkt(1));
            ring.pop()
        });
    });
}

fn bench_stack(c: &mut Bench) {
    c.bench_function("tcp_request_response", |b| {
        let mut server = NetStack::new(MacAddr::xen(1, 0), Ipv4Addr::new(10, 0, 0, 1));
        let mut client = NetStack::new(MacAddr::xen(2, 0), Ipv4Addr::new(10, 0, 0, 2));
        server.tcp_listen(80);
        let (conn, syn) = client.tcp_connect(server.mac(), server.ip(), 80);
        for r in server.handle_packet(&syn) {
            client.handle_packet(&r);
        }
        server.poll_events();
        client.poll_events();
        b.iter(|| {
            let req = client.tcp_send(conn, b"GET /".to_vec()).unwrap();
            server.handle_packet(&req);
            server.poll_events()
        });
    });
}

fn bench_tinyalloc(c: &mut Bench) {
    let mut g = c.benchmark_group("tinyalloc");
    g.bench_function("alloc_free_cycle", |b| {
        let mut ta = TinyAlloc::new(0, 1 << 24, 1024);
        b.iter(|| {
            let p = ta.alloc(256).unwrap();
            ta.free(p);
        });
    });
    g.bench_function("fragmented_alloc", |b| {
        let mut ta = TinyAlloc::new(0, 1 << 24, 4096);
        // Pre-fragment: allocate many, free every other one.
        let ptrs: Vec<u64> = (0..1024).map(|_| ta.alloc(512).unwrap()).collect();
        for p in ptrs.iter().step_by(2) {
            ta.free(*p);
        }
        b.iter(|| {
            let p = ta.alloc(384).unwrap();
            ta.free(p);
        });
    });
    g.finish();
}

fn main() {
    let mut c = Bench::new("net_and_alloc");
    bench_mux(&mut c);
    bench_ring(&mut c);
    bench_stack(&mut c);
    bench_tinyalloc(&mut c);
    c.finish();
}

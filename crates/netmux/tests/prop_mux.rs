//! Property tests for the clone-interface multiplexers: flow stickiness,
//! membership correctness and balance bounds.

use std::net::Ipv4Addr;

use testkit::prop::{check, ranges, u16s, u32s, u64s, vecs};

use netmux::{
    Bond,
    CloneMux,
    IfaceId,
    MacAddr,
    Packet,
    SelectGroup, //
};

fn pkt(src_ip: u32, src_port: u16, dst_port: u16) -> Packet {
    Packet::udp(
        MacAddr::xen(1, 0),
        MacAddr::xen(2, 0),
        Ipv4Addr::from(src_ip),
        Ipv4Addr::new(10, 0, 0, 1),
        src_port,
        dst_port,
        vec![],
    )
}

/// Bond selection is a pure function of the flow: any permutation of
/// queries returns consistent, member-set-contained results.
#[test]
fn bond_selection_is_consistent() {
    check(128, |g| {
        let members = g.draw(&ranges(1u32..32));
        let flows = g.draw(&vecs((u32s(), u16s(), u16s()), 1..64));

        let mut bond = Bond::new();
        for i in 0..members {
            bond.add_member(IfaceId(i));
        }
        let mut first: Vec<IfaceId> = Vec::new();
        for (ip, sp, dp) in &flows {
            let sel = bond.select(&pkt(*ip, *sp, *dp)).unwrap();
            assert!(sel.0 < members, "selected non-member {sel:?}");
            first.push(sel);
        }
        // Re-query in reverse order: identical answers.
        for ((ip, sp, dp), expect) in flows.iter().zip(&first).rev() {
            assert_eq!(bond.select(&pkt(*ip, *sp, *dp)).unwrap(), *expect);
        }
    });
}

/// Removing a member never leaves it selectable and keeps the survivors
/// in enslavement order, for both mux kinds.
#[test]
fn removed_members_are_never_selected() {
    check(128, |g| {
        let members = g.draw(&ranges(2u32..16));
        let victim = g.draw(&u32s());
        let flows = g.draw(&vecs((u32s(), u16s()), 1..64));

        let victim = IfaceId(victim % members);
        let mut bond = Bond::new();
        let mut ovs = SelectGroup::new();
        for i in 0..members {
            bond.add_member(IfaceId(i));
            ovs.add_member(IfaceId(i));
        }
        bond.remove_member(victim);
        ovs.remove_member(victim);
        let survivors: Vec<IfaceId> = (0..members).map(IfaceId).filter(|i| *i != victim).collect();
        for mux in [&mut bond as &mut dyn CloneMux, &mut ovs] {
            assert_eq!(mux.members(), survivors);
            for (ip, sp) in &flows {
                assert_ne!(mux.select(&pkt(*ip, *sp, 80)).unwrap(), victim);
            }
        }
    });
}

/// With many uniformly random flows, no bond slave starves: each gets
/// at least a quarter of its fair share.
#[test]
fn bond_balance_bound() {
    check(128, |g| {
        let members = g.draw(&ranges(2u32..9));
        let seed = g.draw(&u64s());

        let mut bond = Bond::new();
        for i in 0..members {
            bond.add_member(IfaceId(i));
        }
        let mut rng = sim_core::SplitMix64::new(seed);
        let mut counts = vec![0u32; members as usize];
        let n = 2000;
        for _ in 0..n {
            let p = pkt(rng.next_u64() as u32, rng.next_u64() as u16, 80);
            counts[bond.select(&p).unwrap().0 as usize] += 1;
        }
        let fair = n / members;
        for (i, c) in counts.iter().enumerate() {
            assert!(*c >= fair / 4, "slave {i} starved: {c} of fair {fair}");
        }
    });
}

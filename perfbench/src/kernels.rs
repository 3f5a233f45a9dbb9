//! Small kernels over the hot structures' public functions: the
//! reservation tables, the buffer pool, links, the RNG and the traffic
//! generator. Each runs a fixed number of operations per block, several
//! blocks, and reports the median in reference-host nanoseconds.

use crate::nets::PACKET_FLITS;
use crate::stats::{median, Meter};
use flit_reservation::{InputReservationTable, OutputReservationTable};
use noc_engine::{Cycle, Rng};
use noc_flow::{BufferPool, DataFlit, Link};
use noc_topology::{Mesh, NodeId, Port};
use noc_traffic::{LoadSpec, PacketId, TrafficGenerator};
use std::hint::black_box;

/// Blocks per kernel; the median is reported.
const BLOCKS: usize = 5;

fn flit(seq: u32) -> DataFlit {
    DataFlit {
        packet: PacketId::new(0),
        seq,
        length: PACKET_FLITS,
        dest: NodeId::new(0),
        created_at: Cycle::ZERO,
        crc_ok: true,
    }
}

/// Median reference-host nanoseconds per operation of `op`, run `ops`
/// times per block on state built fresh by `make` for every block.
fn per_op<S>(meter: &mut Meter, ops: u64, make: impl Fn() -> S, op: impl Fn(&mut S, u64)) -> f64 {
    let samples: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let mut state = make();
            let (_, block) = meter.time(0, || {
                for i in 0..ops {
                    op(&mut state, i);
                }
            });
            black_box(&state);
            block.norm_s() * 1e9 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Runs every kernel; returns `(metric name, value)` pairs. The traffic
/// generator runs on `mesh` at `load`, the workload's own traffic.
pub fn run_all(meter: &mut Meter, mesh: Mesh, load: f64, seed: u64) -> Vec<(&'static str, f64)> {
    let output_table = per_op(
        meter,
        100_000,
        || {
            let mut table = OutputReservationTable::new(32, Some(6), 4);
            table.advance_to(Cycle::ZERO);
            table
        },
        |table, i| {
            let now = Cycle::new(i + 1);
            table.advance_to(now);
            if let Some(t_d) = table.find_departure(black_box(now), now, |_| true) {
                table.reserve(t_d);
                table.credit(t_d + 5, now);
            }
        },
    );
    let full_scan = per_op(
        meter,
        100_000,
        || {
            // Every slot of the horizon booked: the search scans them all.
            let mut table = OutputReservationTable::new(32, Some(6), 4);
            table.advance_to(Cycle::ZERO);
            for t in 1..=32u64 {
                table.reserve(Cycle::new(t));
                table.credit(Cycle::new(t + 5), Cycle::ZERO);
            }
            table
        },
        |table, _| {
            black_box(table.find_departure(Cycle::ZERO, Cycle::ZERO, |_| true));
        },
    );
    let input_table = per_op(
        meter,
        50_000,
        || {
            let mut table = InputReservationTable::new(32, 6, 4);
            table.advance_to(Cycle::ZERO);
            table
        },
        |table, i| {
            // Book, arrive and depart one flit; five cycles per operation.
            let now = Cycle::new(5 * i + 1);
            table.advance_to(now);
            table.apply_reservation(now + 2, now + 5, Port::East, now);
            table.advance_to(now + 2);
            table.on_data_arrival(flit(0), now + 2);
            table.advance_to(now + 5);
            black_box(table.take_departure(now + 5));
        },
    );
    let buffer_pool = per_op(
        meter,
        500_000,
        || BufferPool::new(6),
        |pool, i| {
            let id = pool.insert(flit(i as u32)).expect("pool has space");
            black_box(pool.take(id));
        },
    );
    let link = per_op(
        meter,
        500_000,
        || Link::<DataFlit>::new(4, 1),
        |link, i| {
            link.push(Cycle::new(i), flit(0))
                .expect("one flit per cycle");
            black_box(link.take_arrivals(Cycle::new(i + 1)).len());
        },
    );
    let rng = per_op(
        meter,
        2_000_000,
        || Rng::from_seed(seed),
        |rng, _| {
            black_box(rng.next_u64());
        },
    );
    let spec = LoadSpec::fraction_of_capacity(load, PACKET_FLITS);
    let generator = per_op(
        meter,
        20_000,
        || {
            (
                TrafficGenerator::uniform(mesh, spec, Rng::from_seed(seed)),
                Vec::new(),
            )
        },
        |(generator, out), i| {
            out.clear();
            generator.tick_into(Cycle::new(i), out);
        },
    );
    vec![
        ("flit-reservation.output_table.ns_per_op", output_table),
        ("flit-reservation.output_table.full_scan_ns", full_scan),
        ("flit-reservation.input_table.ns_per_op", input_table),
        ("flow.buffer_pool.ns_per_op", buffer_pool),
        ("flow.link.ns_per_op", link),
        ("engine.rng.ns_per_op", rng),
        ("traffic.generator.ns_per_cycle", generator),
    ]
}

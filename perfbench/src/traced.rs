//! A benchmark-owned [`Router`] decorator that times the calls the network
//! makes into a router, from outside the router.
//!
//! Wrapping changes nothing the simulation computes: every trait method is
//! forwarded unchanged, so a wrapped network's state digest equals the
//! unwrapped one's (checked by the tests below and by every traced run).
//! Statistics live in the wrapper, one per router, so sharded stepping
//! records them without sharing anything across threads.

use noc_engine::Cycle;
use noc_flow::{LinkEvent, Router, RouterCounters, StepOutputs};
use noc_topology::{NodeId, Port};
use noc_traffic::Packet;
use std::time::Instant;

/// Call count and wall-clock nanoseconds of one kind of router call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Wall-clock nanoseconds inside those calls.
    pub ns: u64,
}

impl Span {
    fn add(&mut self, start: Instant) {
        self.calls += 1;
        self.ns += start.elapsed().as_nanos() as u64;
    }

    fn absorb(&mut self, other: &Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Everything the decorator records for one router.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStats {
    /// `Router::receive` calls.
    pub receive: Span,
    /// `Router::try_inject` calls.
    pub inject: Span,
    /// `Router::step` calls.
    pub step: Span,
    /// Injections the router accepted.
    pub injects_accepted: u64,
    /// Steps that emitted at least one link send or ejection.
    pub busy_steps: u64,
    /// Flits the router ejected to its node.
    pub ejections: u64,
}

impl CallStats {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &CallStats) {
        self.receive.absorb(&other.receive);
        self.inject.absorb(&other.inject);
        self.step.absorb(&other.step);
        self.injects_accepted += other.injects_accepted;
        self.busy_steps += other.busy_steps;
        self.ejections += other.ejections;
    }

    /// Nanoseconds inside all timed router calls.
    pub fn router_ns(&self) -> u64 {
        self.receive.ns + self.inject.ns + self.step.ns
    }
}

/// A router wrapped so the network's calls into it are timed.
#[derive(Debug)]
pub struct Traced<R> {
    inner: R,
    stats: CallStats,
}

impl<R> Traced<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        Traced {
            inner,
            stats: CallStats::default(),
        }
    }

    /// What has been recorded so far.
    pub fn stats(&self) -> &CallStats {
        &self.stats
    }
}

impl<R: Router> Router for Traced<R> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn receive(&mut self, port: Port, event: LinkEvent, now: Cycle) {
        let start = Instant::now();
        self.inner.receive(port, event, now);
        self.stats.receive.add(start);
    }

    fn try_inject(&mut self, packet: Packet, now: Cycle) -> bool {
        let start = Instant::now();
        let accepted = self.inner.try_inject(packet, now);
        self.stats.inject.add(start);
        self.stats.injects_accepted += accepted as u64;
        accepted
    }

    fn step(&mut self, now: Cycle, out: &mut StepOutputs) {
        let (sends, ejections) = (out.sends.len(), out.ejections.len());
        let start = Instant::now();
        self.inner.step(now, out);
        self.stats.step.add(start);
        let ejected = (out.ejections.len() - ejections) as u64;
        self.stats.ejections += ejected;
        self.stats.busy_steps += (ejected > 0 || out.sends.len() > sends) as u64;
    }

    fn occupied_data_buffers(&self, port: Port) -> usize {
        self.inner.occupied_data_buffers(port)
    }

    fn data_buffer_capacity(&self, port: Port) -> usize {
        self.inner.data_buffer_capacity(port)
    }

    fn queued_flits(&self) -> usize {
        self.inner.queued_flits()
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn collect_counters(&self, out: &mut RouterCounters) {
        self.inner.collect_counters(out);
    }

    fn emit_stall_provenance(&mut self, now: Cycle) {
        self.inner.emit_stall_provenance(now);
    }

    fn on_link_dead(&mut self, port: Port) {
        self.inner.on_link_dead(port);
    }

    fn bookings_in_flight(&self) -> u64 {
        self.inner.bookings_in_flight()
    }

    fn state_snapshot(&self) -> noc_metrics::Json {
        self.inner.state_snapshot()
    }
}

//! A query: one timed source plus a chain of operators on a virtual core.

use crate::operator::{Operator, TimedElement};
use lmerge_core::BatchMeta;
use lmerge_temporal::{Element, Payload, Time, VTime};

/// A batch of elements a query delivers to LMerge: the outputs produced by
/// processing one source element.
#[derive(Debug)]
pub struct Batch<P> {
    /// Virtual time at which the batch leaves the query.
    pub deliver_at: VTime,
    /// Virtual arrival time of the source element that caused it.
    pub arrival: VTime,
    /// The produced elements (possibly empty).
    pub elements: Vec<Element<P>>,
    /// Per-batch summary (kind counts, data `Vs` range), computed once here
    /// so downstream consumers can hoist per-batch work.
    pub meta: BatchMeta,
}

/// A pull source of timed elements feeding one [`Query`].
///
/// The executor only ever asks for the next element, so a source can be an
/// in-memory vector (the default, [`Query::new`]), or something that blocks
/// on the outside world — the lmerge-net ingest server implements this
/// trait over the inputs' sockets, which the merge thread reads itself, so
/// a remote replica's elements enter the same virtual-time pipeline as
/// in-process feeds. Each element
/// carries its own virtual arrival stamp, which is what makes networked and
/// in-process delivery of the same feed produce identical runs.
pub trait Source<P: Payload>: Send {
    /// The next timed element, or `None` when the source is finished.
    ///
    /// A source backed by a live connection may block here until the peer
    /// delivers more; the virtual-time model is unaffected because time is
    /// carried in the elements, not measured around this call.
    fn next(&mut self) -> Option<TimedElement<P>>;

    /// Bytes of buffering held by the source itself (0 for plain vectors).
    fn memory_bytes(&self) -> usize {
        0
    }
}

/// The ordinary in-memory source: a pre-timed vector, consumed in order.
struct VecSource<P>(std::vec::IntoIter<TimedElement<P>>);

impl<P: Payload> Source<P> for VecSource<P> {
    fn next(&mut self) -> Option<TimedElement<P>> {
        self.0.next()
    }
}

/// One continuous query: a source, an operator chain, and a virtual core.
///
/// Elements are processed in arrival order; processing of an element starts
/// when both the element has arrived and the core is free, and takes the sum
/// of the chain's per-element costs. This single-server queueing model is
/// what lets lag, bursts, congestion, and plan cost asymmetry (Figures 5 and
/// 8–10) reproduce deterministically.
pub struct Query<P: Payload> {
    source: Box<dyn Source<P>>,
    chain: Vec<Box<dyn Operator<P>>>,
    /// Cost charged for ingesting one source element, before the chain.
    base_cost_us: u64,
    core_ready: VTime,
}

impl<P: Payload> Query<P> {
    /// A query over `source` with the given operator chain.
    pub fn new(source: Vec<TimedElement<P>>, chain: Vec<Box<dyn Operator<P>>>) -> Query<P> {
        Query::from_source(Box::new(VecSource(source.into_iter())), chain)
    }

    /// A query pulling from an arbitrary [`Source`] — the entry point for
    /// sources that are not in-memory vectors (network ingest, replay).
    pub fn from_source(source: Box<dyn Source<P>>, chain: Vec<Box<dyn Operator<P>>>) -> Query<P> {
        Query {
            source,
            chain,
            base_cost_us: 1,
            core_ready: VTime::ZERO,
        }
    }

    /// A query that forwards its source unchanged.
    pub fn passthrough(source: Vec<TimedElement<P>>) -> Query<P> {
        Query::new(source, Vec::new())
    }

    /// Set the per-element ingest cost (virtual µs). Higher values model a
    /// slower machine or a more expensive plan.
    #[must_use]
    pub fn with_base_cost(mut self, us: u64) -> Query<P> {
        self.base_cost_us = us;
        self
    }

    /// Process the next source element; `None` when the source is drained.
    pub fn next_batch(&mut self) -> Option<Batch<P>> {
        let te = self.source.next()?;
        let start = if te.at > self.core_ready {
            te.at
        } else {
            self.core_ready
        };
        let mut cost = self.base_cost_us;
        let mut elems = vec![te.element];
        for op in &mut self.chain {
            let mut next = Vec::with_capacity(elems.len());
            for e in &elems {
                cost += op.cost_us(e);
                op.on_element(e, &mut next);
            }
            elems = next;
        }
        self.core_ready = start.advance(cost);
        Some(Batch {
            deliver_at: self.core_ready,
            arrival: te.at,
            meta: BatchMeta::of(&elems),
            elements: elems,
        })
    }

    /// Propagate a feedback signal to every operator (Section V-D).
    pub fn on_feedback(&mut self, t: Time) {
        for op in &mut self.chain {
            op.on_feedback(t);
        }
    }

    /// Total operator state held by this query, plus any buffering the
    /// source itself maintains (e.g. a network input's read buffer).
    pub fn memory_bytes(&self) -> usize {
        self.chain.iter().map(|op| op.memory_bytes()).sum::<usize>() + self.source.memory_bytes()
    }

    /// Virtual time at which the query's core frees up.
    pub fn core_ready(&self) -> VTime {
        self.core_ready
    }

    /// Freeze the query's core until `until`: batches not yet produced
    /// cannot leave before that virtual time. Used by fault injection to
    /// model a paused or wedged replica.
    pub fn stall(&mut self, until: VTime) {
        if until > self.core_ready {
            self.core_ready = until;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Filter;

    fn src(items: &[(u64, Element<&'static str>)]) -> Vec<TimedElement<&'static str>> {
        items
            .iter()
            .map(|(at, e)| TimedElement::new(VTime(*at), e.clone()))
            .collect()
    }

    #[test]
    fn passthrough_preserves_elements() {
        let mut q = Query::passthrough(src(&[
            (0, Element::insert("a", 1, 5)),
            (10, Element::stable(2)),
        ]));
        let b1 = q.next_batch().unwrap();
        assert_eq!(b1.elements, vec![Element::insert("a", 1, 5)]);
        let b2 = q.next_batch().unwrap();
        assert_eq!(b2.elements, vec![Element::stable(2)]);
        assert!(q.next_batch().is_none());
    }

    #[test]
    fn core_queues_under_burst() {
        // Two elements arrive together; the second waits for the core.
        let mut q = Query::passthrough(src(&[
            (100, Element::insert("a", 1, 5)),
            (100, Element::insert("b", 2, 6)),
        ]))
        .with_base_cost(50);
        let b1 = q.next_batch().unwrap();
        assert_eq!(b1.deliver_at, VTime(150));
        let b2 = q.next_batch().unwrap();
        assert_eq!(b2.deliver_at, VTime(200), "queued behind the first");
    }

    #[test]
    fn idle_core_waits_for_arrival() {
        let mut q = Query::passthrough(src(&[
            (0, Element::insert("a", 1, 5)),
            (1000, Element::insert("b", 2, 6)),
        ]))
        .with_base_cost(10);
        q.next_batch().unwrap();
        let b2 = q.next_batch().unwrap();
        assert_eq!(b2.deliver_at, VTime(1010), "starts at arrival, not 20");
    }

    #[test]
    fn chain_costs_accumulate() {
        let chain: Vec<Box<dyn Operator<&'static str>>> =
            vec![Box::new(Filter::new("f", |_: &&str| true))];
        let mut q = Query::new(src(&[(0, Element::insert("a", 1, 5))]), chain).with_base_cost(5);
        let b = q.next_batch().unwrap();
        // base 5 + filter default cost 1.
        assert_eq!(b.deliver_at, VTime(6));
        assert_eq!(b.elements.len(), 1);
    }

    #[test]
    fn filtered_batches_are_empty_but_cost_time() {
        let chain: Vec<Box<dyn Operator<&'static str>>> =
            vec![Box::new(Filter::new("f", |_: &&str| false))];
        let mut q = Query::new(src(&[(0, Element::insert("a", 1, 5))]), chain);
        let b = q.next_batch().unwrap();
        assert!(b.elements.is_empty());
        assert!(b.deliver_at > VTime::ZERO);
    }
}

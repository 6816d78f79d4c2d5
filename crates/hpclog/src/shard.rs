//! The canonical event order and the workspace's k-way merge kernel.
//!
//! # The canonical order
//!
//! Stage II never combines events from different hosts (coalescing keys on
//! `(host, pci, kind)`), so the relative placement of two hosts' events
//! within one timestamp is invisible to every aggregate. The report's
//! event listing still needs *one* byte sequence, so the pipeline defines
//! a **canonical order**: `(time, host)`, ties inside one `(time, host)`
//! class kept in arrival order. It has two producers:
//!
//! * [`canonical_sort`] — a **stable** sort by `(time, host)`, which the
//!   batch tail (`Pipeline::run_events`) applies to every event stream;
//! * the streaming engine's tie buffer (`core::incremental`) — the byte
//!   scanner rejects clock regressions, so accepted events arrive in
//!   non-decreasing time and only the events of the newest second need
//!   holding back; a stable host sort of that second, flushed when time
//!   advances, is exactly what [`canonical_sort`] does to that slice.
//!
//! # The merge kernel
//!
//! [`merge_sorted_by`] merges streams that are each sorted under one
//! comparator. `servd`'s sharded store merges per-shard query slices
//! through it, and the rollup layer merges per-shard cube cells.

use crate::nvrm::XidEvent;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One stream's head, queued for the generic k-way merge. Ordered by the
/// caller's comparator, ties broken by stream index so the merge is a
/// deterministic function of the input streams.
struct Pending<'c, T, C: Fn(&T, &T) -> std::cmp::Ordering> {
    item: T,
    stream: usize,
    cmp: &'c C,
}

impl<T, C: Fn(&T, &T) -> std::cmp::Ordering> Pending<'_, T, C> {
    fn order(&self, other: &Self) -> std::cmp::Ordering {
        (self.cmp)(&self.item, &other.item).then(self.stream.cmp(&other.stream))
    }
}

impl<T, C: Fn(&T, &T) -> std::cmp::Ordering> PartialEq for Pending<'_, T, C> {
    fn eq(&self, other: &Self) -> bool {
        self.order(other) == std::cmp::Ordering::Equal
    }
}
impl<T, C: Fn(&T, &T) -> std::cmp::Ordering> Eq for Pending<'_, T, C> {}
impl<T, C: Fn(&T, &T) -> std::cmp::Ordering> PartialOrd for Pending<'_, T, C> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T, C: Fn(&T, &T) -> std::cmp::Ordering> Ord for Pending<'_, T, C> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order(other)
    }
}

/// K-way merges streams that are each already sorted under `cmp` into one
/// stream sorted under `cmp`.
///
/// The heap holds at most one head per stream, so the merge is
/// O(n log k) with no element clones. Elements that compare equal come
/// out in stream-index order, so the result is a deterministic function
/// of the inputs (and, when the merge key is unique across streams — the
/// serving store's global row id — independent of how items are
/// distributed over streams).
///
/// This is the one merge kernel in the workspace: `servd`'s
/// scatter-gather store merges per-shard query slices through it, and the
/// rollup layer merges per-shard cube cells by bucket start (summing equal
/// starts afterwards) — which is why a rollup cube is byte-identical
/// whether the store was built with 1 shard or 8.
pub fn merge_sorted_by<T, C: Fn(&T, &T) -> std::cmp::Ordering>(
    streams: Vec<Vec<T>>,
    cmp: C,
) -> Vec<T> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap: BinaryHeap<Reverse<Pending<'_, T, C>>> = BinaryHeap::with_capacity(streams.len());
    let mut tails: Vec<std::vec::IntoIter<T>> = Vec::with_capacity(streams.len());
    for (stream, items) in streams.into_iter().enumerate() {
        let mut iter = items.into_iter();
        if let Some(item) = iter.next() {
            heap.push(Reverse(Pending {
                item,
                stream,
                cmp: &cmp,
            }));
        }
        tails.push(iter);
    }
    while let Some(Reverse(head)) = heap.pop() {
        if let Some(item) = tails[head.stream].next() {
            heap.push(Reverse(Pending {
                item,
                stream: head.stream,
                cmp: &cmp,
            }));
        }
        out.push(head.item);
    }
    out
}

/// Stable-sorts events into canonical order.
///
/// A **stable** sort by `(time, host)`: events that tie on both keep
/// their arrival order, so the result is a deterministic function of the
/// input stream.
pub fn canonical_sort(events: &mut [XidEvent]) {
    events.sort_by(|a, b| a.time.cmp(&b.time).then_with(|| a.host.cmp(&b.host)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PciAddr;
    use simtime::Timestamp;
    use xid::XidCode;

    fn event(secs: u64, host: &str, gpu: u8) -> XidEvent {
        let t = Timestamp::from_ymd_hms(2024, 3, 14, 3, 0, 0).unwrap();
        XidEvent::new(
            t + simtime::Duration::from_secs(secs),
            host,
            PciAddr::for_gpu_index(gpu),
            XidCode::new(79),
            "",
        )
    }

    #[test]
    fn canonical_sort_orders_by_time_then_host_and_keeps_ties_stable() {
        let mut events = vec![
            event(5, "gpub002", 0),
            event(5, "gpub001", 1),
            event(1, "gpub009", 0),
            event(5, "gpub001", 0),
        ];
        canonical_sort(&mut events);
        let keys: Vec<(u64, &str, PciAddr)> = events
            .iter()
            .map(|e| (e.time.unix() % 60, e.host.as_str(), e.pci))
            .collect();
        assert_eq!(
            keys,
            [
                (1, "gpub009", PciAddr::for_gpu_index(0)),
                (5, "gpub001", PciAddr::for_gpu_index(1)),
                (5, "gpub001", PciAddr::for_gpu_index(0)),
                (5, "gpub002", PciAddr::for_gpu_index(0)),
            ]
        );
    }

    #[test]
    fn merge_interleaves_sorted_streams_and_breaks_ties_by_stream() {
        let streams = vec![vec![(1, 'a'), (4, 'a')], vec![], vec![(1, 'c'), (2, 'c')]];
        let merged = merge_sorted_by(streams, |x: &(u32, char), y| x.0.cmp(&y.0));
        assert_eq!(merged, [(1, 'a'), (1, 'c'), (2, 'c'), (4, 'a')]);
        let none: Vec<Vec<u32>> = Vec::new();
        assert!(merge_sorted_by(none, u32::cmp).is_empty());
    }
}

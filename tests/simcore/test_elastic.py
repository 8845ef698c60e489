"""OverdueTracker against the brute-force scan it replaces.

The elastic loop asks, at every control tick, how many admitted and
still-unresolved requests are older than the SLO (``now - arrival >
slo``, strictly).  :class:`~repro.simcore.elastic.OverdueTracker`
answers from a monotone cursor; these tests replay random event
streams against a full scan of the open requests at every tick.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore.elastic import OverdueTracker

SLO_S = 0.5
N_CLASSES = 3


def brute_counts(open_requests, now_s, slo_s=SLO_S, n_classes=N_CLASSES):
    """The scan: unresolved admitted requests with ``now - arrival > slo``."""
    counts = [0] * n_classes
    for arrival_s, class_idx in open_requests.values():
        if now_s - arrival_s > slo_s:
            counts[class_idx] += 1
    return counts


#: (time step, operation, class, pick) rows; time never goes backwards,
#: as in the event loop.
EVENT_STREAMS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75]),
              st.sampled_from(["admit", "resolve", "tick"]),
              st.integers(min_value=0, max_value=N_CLASSES - 1),
              st.integers(min_value=0, max_value=10**6)),
    min_size=1, max_size=60)


@settings(deadline=None, max_examples=200)
@given(steps=EVENT_STREAMS)
def test_counts_match_brute_scan(steps):
    tracker = OverdueTracker(SLO_S, N_CLASSES)
    open_requests = {}
    now = 0.0
    next_id = 0
    for dt, op, class_idx, pick in steps:
        now += dt
        if op == "admit":
            tracker.admit(next_id, now, class_idx)
            open_requests[next_id] = (now, class_idx)
            next_id += 1
        elif op == "resolve" and open_requests:
            req_id = sorted(open_requests)[pick % len(open_requests)]
            tracker.resolve(req_id)
            del open_requests[req_id]
        elif op == "tick":
            assert tracker.counts(now) == brute_counts(open_requests, now)


def test_resolved_before_crossing_is_never_counted():
    tracker = OverdueTracker(SLO_S, 1)
    tracker.admit(0, 0.0, 0)
    tracker.resolve(0)
    assert tracker.counts(10.0) == [0]


def test_resolved_after_crossing_stops_counting():
    tracker = OverdueTracker(SLO_S, 1)
    tracker.admit(0, 0.0, 0)
    assert tracker.counts(0.75) == [1]
    tracker.resolve(0)
    assert tracker.counts(0.75) == [0]
    assert tracker.counts(2.0) == [0]


def test_arrival_exactly_slo_before_tick_is_not_overdue():
    """``0.75 - 0.25 == 0.5`` exactly: the comparison is strict."""
    tracker = OverdueTracker(SLO_S, 1)
    tracker.admit(0, 0.25, 0)
    assert 0.75 - 0.25 == SLO_S
    assert tracker.counts(0.75) == brute_counts({0: (0.25, 0)}, 0.75,
                                                n_classes=1) == [0]
    assert tracker.counts(0.75 + 1e-12) == [1]


def test_resolving_an_unknown_id_is_a_no_op():
    tracker = OverdueTracker(SLO_S, 1)
    tracker.resolve(7)
    tracker.admit(0, 0.0, 0)
    tracker.resolve(7)
    assert tracker.counts(1.0) == [1]


@settings(deadline=None, max_examples=200)
@given(steps=EVENT_STREAMS)
def test_shared_columns_match_brute_scan(steps):
    """The elastic loop's use: the tracker reads the driver's columns,
    and a resolution settles only what the last read counted."""
    arrival_s, classes, done_s = {}, {}, {}
    tracker = OverdueTracker.sharing(SLO_S, N_CLASSES, arrival_s, classes,
                                     done_s)
    open_requests = {}
    now = 0.0
    next_id = 0
    for dt, op, class_idx, pick in steps:
        now += dt
        if op == "admit":
            arrival_s[next_id], classes[next_id] = now, class_idx
            tracker.admitted.append(next_id)
            open_requests[next_id] = (now, class_idx)
            next_id += 1
        elif op == "resolve" and open_requests:
            req_id = sorted(open_requests)[pick % len(open_requests)]
            done_s[req_id] = now
            if tracker.read_s - arrival_s[req_id] > SLO_S:
                tracker.settle(req_id)
            del open_requests[req_id]
        elif op == "tick":
            assert tracker.counts(now) == brute_counts(open_requests, now)

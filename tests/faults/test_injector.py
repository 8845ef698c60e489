"""FaultInjector: availability windows, slowdown multipliers, bit flips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    BitFlipFault,
    FaultInjector,
    FaultPlan,
    OutageFault,
    StallFault,
)


def make_injector():
    plan = FaultPlan(
        stalls=(
            StallFault(shard_id=0, start_s=1.0, duration_s=1.0,
                       slowdown=3.0),
            StallFault(shard_id=0, start_s=1.5, duration_s=1.0,
                       slowdown=2.0),
        ),
        outages=(
            OutageFault(shard_id=1, start_s=2.0, duration_s=1.0),
            OutageFault(shard_id=1, start_s=2.5, duration_s=1.0,
                        recovery_s=0.5, recovery_slowdown=2.0),
            OutageFault(shard_id=2, start_s=4.0),
        ),
    )
    return FaultInjector(plan, n_shards=4)


class TestConstruction:
    def test_rejects_plan_exceeding_shards(self):
        plan = FaultPlan(outages=(OutageFault(shard_id=5, start_s=0.0),))
        with pytest.raises(ValueError, match="shard ids"):
            FaultInjector(plan, n_shards=4)

    def test_empty_plan_is_falsy(self):
        assert not FaultInjector(FaultPlan(), n_shards=2)
        assert make_injector()


class TestAvailability:
    def test_overlapping_outages_merge(self):
        inj = make_injector()
        # Two outages [2, 3) and [2.5, 3.5) behave as their union.
        assert not inj.is_down(1, 1.99)
        assert inj.is_down(1, 2.0)
        assert inj.is_down(1, 3.2)
        assert not inj.is_down(1, 3.5)
        assert inj.next_up(1, 2.7) == 3.5

    def test_next_up_identity_when_up(self):
        inj = make_injector()
        assert inj.next_up(1, 1.0) == 1.0
        assert inj.next_up(3, 100.0) == 100.0

    def test_permanent_outage(self):
        inj = make_injector()
        assert inj.is_down(2, 4.0)
        assert inj.is_down(2, 1e9)
        assert math.isinf(inj.next_up(2, 5.0))
        assert inj.permanently_down_from(2) == 4.0
        assert math.isinf(inj.permanently_down_from(1))

    def test_next_outage_start_is_strictly_after(self):
        inj = make_injector()
        assert inj.next_outage_start(1, 0.0) == 2.0
        assert inj.next_outage_start(1, 2.0) == math.inf  # inside window
        assert inj.next_outage_start(2, 3.9) == 4.0
        assert inj.next_outage_start(0, 0.0) == math.inf  # no outages


class TestMultiplier:
    def test_one_outside_every_window(self):
        inj = make_injector()
        assert inj.multiplier(0, 0.5) == 1.0
        assert inj.multiplier(0, 2.5) == 1.0
        assert inj.multiplier(3, 10.0) == 1.0

    def test_single_and_stacked_stalls(self):
        inj = make_injector()
        assert inj.multiplier(0, 1.2) == 3.0          # first stall only
        assert inj.multiplier(0, 1.75) == 6.0         # overlap: 3 * 2
        assert inj.multiplier(0, 2.2) == 2.0          # second stall only

    def test_recovery_decays_linearly(self):
        inj = make_injector()
        # Shard 1's merged outage ends at 3.5 and the second outage's
        # slow-start ramp covers [3.5, 4.0): halfway through the
        # multiplier is halfway from 2.0 to 1.0.
        assert inj.multiplier(1, 3.75) == pytest.approx(1.5)
        assert inj.multiplier(1, 4.0) == 1.0

    def test_boundaries_are_half_open(self):
        inj = make_injector()
        assert inj.multiplier(0, 1.0) == 3.0   # start inclusive
        assert inj.multiplier(0, 2.5) == 1.0   # end exclusive


class TestBitFlipQueries:
    def make_flip_injector(self):
        plan = FaultPlan(bit_flips=(
            BitFlipFault(shard_id=0, t_s=1.0, target="vr", vr=4, bit=3),
            BitFlipFault(shard_id=0, t_s=2.0, target="dma", burst_bits=3),
            BitFlipFault(shard_id=1, t_s=0.5, target="stuck", vr=5, bit=7),
        ))
        return FaultInjector(plan, n_shards=3)

    def test_flips_in_window_is_half_open(self):
        inj = self.make_flip_injector()
        assert [f.t_s for f in inj.flips_in(0, 0.0, 3.0)] == [1.0, 2.0]
        assert [f.t_s for f in inj.flips_in(0, 1.0, 2.0)] == [1.0]
        assert inj.flips_in(0, 2.5, 9.0) == ()
        assert inj.flips_in(2, 0.0, 9.0) == ()

    def test_stuck_excluded_from_transient_query(self):
        inj = self.make_flip_injector()
        assert inj.flips_in(1, 0.0, 9.0) == ()

    def test_stuck_active_persists_from_onset(self):
        inj = self.make_flip_injector()
        assert inj.stuck_active(1, 0.4) == ()
        assert [f.vr for f in inj.stuck_active(1, 0.5)] == [5]
        assert [f.vr for f in inj.stuck_active(1, 1e9)] == [5]
        assert inj.stuck_active(0, 1e9) == ()

    def test_has_bit_flips(self):
        inj = self.make_flip_injector()
        assert inj.has_bit_flips(0)
        assert inj.has_bit_flips(1)
        assert not inj.has_bit_flips(2)
        assert not make_injector().has_bit_flips(1)


class LinearInjector:
    """Brute-force reference: every query a linear scan of the script.

    This is the injector as it first shipped; the compiled
    :class:`FaultInjector` must answer every query bitwise equal to it.
    """

    def __init__(self, plan, n_shards):
        self.plan = plan
        self.n_shards = n_shards

    def _windows(self, shard_id):
        merged = []
        for start, end in sorted((o.start_s, o.end_s)
                                 for o in self.plan.outages
                                 if o.shard_id == shard_id):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def _stalls(self, shard_id):
        return sorted((f for f in self.plan.stalls if f.shard_id == shard_id),
                      key=lambda f: (f.start_s, f.end_s))

    def _recoveries(self, shard_id):
        return sorted((o for o in self.plan.outages
                       if o.shard_id == shard_id and o.recovery_s > 0),
                      key=lambda f: (f.start_s, f.end_s))

    def _flips(self, shard_id, persistent):
        return sorted((f for f in self.plan.bit_flips
                       if f.shard_id == shard_id
                       and f.persistent == persistent),
                      key=lambda f: f.t_s)

    def is_down(self, shard_id, t_s):
        return any(start <= t_s < end
                   for start, end in self._windows(shard_id))

    def next_up(self, shard_id, t_s):
        for start, end in self._windows(shard_id):
            if start <= t_s < end:
                return end
        return t_s

    def next_outage_start(self, shard_id, t_s):
        for start, _ in self._windows(shard_id):
            if start > t_s:
                return start
        return math.inf

    def permanently_down_from(self, shard_id):
        windows = self._windows(shard_id)
        if windows and math.isinf(windows[-1][1]):
            return windows[-1][0]
        return math.inf

    def flips_in(self, shard_id, t0_s, t1_s):
        return tuple(f for f in self._flips(shard_id, False)
                     if t0_s <= f.t_s < t1_s)

    def transient_flips(self, shard_id):
        return tuple(self._flips(shard_id, False))

    def stuck_active(self, shard_id, t_s):
        return tuple(f for f in self._flips(shard_id, True) if f.t_s <= t_s)

    def has_bit_flips(self, shard_id):
        return any(f.shard_id == shard_id for f in self.plan.bit_flips)

    def multiplier(self, shard_id, t_s):
        factor = 1.0
        for stall in self._stalls(shard_id):
            if stall.start_s <= t_s < stall.end_s:
                factor *= stall.slowdown
        for outage in self._recoveries(shard_id):
            if outage.end_s <= t_s < outage.end_s + outage.recovery_s:
                progress = (t_s - outage.end_s) / outage.recovery_s
                factor *= (outage.recovery_slowdown
                           - (outage.recovery_slowdown - 1.0) * progress)
        return factor

    def multiplier_sources(self, shard_id, t_s):
        sources = []
        if any(stall.start_s <= t_s < stall.end_s
               for stall in self._stalls(shard_id)):
            sources.append("stall")
        if any(o.end_s <= t_s < o.end_s + o.recovery_s
               for o in self._recoveries(shard_id)):
            sources.append("recovery")
        return tuple(sources)


def _bitwise(value):
    """A key equal for two answers exactly when they are bitwise equal:
    ``repr`` tells ``-0.0`` from ``0.0`` and ``np.float64`` from
    ``float``, and round-trips every other float exactly."""
    return type(value), repr(value)


def _breakpoints(plan, shard_id):
    """Every scripted edge on the shard and its float neighbours."""
    edges = {0.0}
    for f in plan.stalls:
        if f.shard_id == shard_id:
            edges |= {f.start_s, f.end_s}
    for o in plan.outages:
        if o.shard_id == shard_id:
            edges |= {o.start_s, o.end_s, o.end_s + o.recovery_s}
    for f in plan.bit_flips:
        if f.shard_id == shard_id:
            edges.add(f.t_s)
    times = set()
    for edge in edges:
        if math.isfinite(edge):
            times |= {edge, math.nextafter(edge, -math.inf),
                      math.nextafter(edge, math.inf)}
    return sorted(times)


def assert_matches_linear_scans(plan, n_shards, extra_times=()):
    """Every query of the compiled injector, on every shard, at every
    breakpoint, its neighbours and ``extra_times``, equals the scan."""
    compiled = FaultInjector(plan, n_shards)
    reference = LinearInjector(plan, n_shards)
    for shard_id in range(n_shards):
        times = sorted(set(_breakpoints(plan, shard_id)) | set(extra_times))
        assert compiled.has_bit_flips(shard_id) \
            == reference.has_bit_flips(shard_id)
        assert compiled.transient_flips(shard_id) \
            == reference.transient_flips(shard_id)
        assert compiled.transient_onsets(shard_id) == tuple(
            f.t_s for f in reference.transient_flips(shard_id))
        assert _bitwise(compiled.permanently_down_from(shard_id)) \
            == _bitwise(reference.permanently_down_from(shard_id))
        for t_s in times:
            for query in ("is_down", "next_up", "next_outage_start",
                          "stuck_active", "multiplier",
                          "multiplier_sources"):
                got = getattr(compiled, query)(shard_id, t_s)
                want = getattr(reference, query)(shard_id, t_s)
                assert _bitwise(got) == _bitwise(want), \
                    (query, shard_id, t_s, got, want)
        for t0_s in times[::3]:
            for t1_s in times[::2]:
                assert compiled.flips_in(shard_id, t0_s, t1_s) \
                    == reference.flips_in(shard_id, t0_s, t1_s), \
                    (shard_id, t0_s, t1_s)


def assert_calm_windows_sound(plan, n_shards, extra_times=()):
    """``calm_until`` against the scans, at every breakpoint, its
    neighbours and ``extra_times``: for every sampled ``t'`` in ``[t,
    calm_until(t))`` the shard is up, its multiplier is exactly one and
    no stuck-at cell is active, and no outage starts inside the window;
    the window is empty exactly when the scans find ``t`` not calm."""
    compiled = FaultInjector(plan, n_shards)
    reference = LinearInjector(plan, n_shards)
    for shard_id in range(n_shards):
        times = sorted(set(_breakpoints(plan, shard_id)) | set(extra_times))
        for t_s in times:
            calm_hi = compiled.calm_until(shard_id, t_s)
            calm_at_t = (not reference.is_down(shard_id, t_s)
                         and reference.multiplier_sources(shard_id, t_s) == ()
                         and reference.stuck_active(shard_id, t_s) == ())
            assert (calm_hi > t_s) == calm_at_t, (shard_id, t_s, calm_hi)
            if calm_hi == t_s:
                continue
            assert reference.next_outage_start(shard_id, t_s) >= calm_hi, \
                (shard_id, t_s, calm_hi)
            inside = [t for t in times if t_s <= t < calm_hi]
            if math.isfinite(calm_hi):
                inside.append(math.nextafter(calm_hi, -math.inf))
            for t in inside:
                assert not reference.is_down(shard_id, t), (shard_id, t_s, t)
                assert _bitwise(reference.multiplier(shard_id, t)) \
                    == _bitwise(1.0), (shard_id, t_s, t)
                assert reference.stuck_active(shard_id, t) == (), \
                    (shard_id, t_s, t)


def stacked_plan():
    """Overlapping stalls stacked on overlapping recovery ramps."""
    return FaultPlan(
        stalls=(
            StallFault(shard_id=0, start_s=0.375, duration_s=0.5,
                       slowdown=2.9),
            StallFault(shard_id=0, start_s=0.5, duration_s=1.25,
                       slowdown=1.7),
            StallFault(shard_id=0, start_s=0.5, duration_s=0.25,
                       slowdown=3.1),
            StallFault(shard_id=0, start_s=2.0, duration_s=0.75,
                       slowdown=1.5),
            StallFault(shard_id=1, start_s=0.1, duration_s=0.3,
                       slowdown=2.2),
        ),
        outages=(
            # Two restarts ending together: their ramps [0.5, 2.5) and
            # [0.5, 1.0) stack, under the stalls above.
            OutageFault(shard_id=0, start_s=0.0, duration_s=0.5,
                        recovery_s=2.0, recovery_slowdown=3.3),
            OutageFault(shard_id=0, start_s=0.25, duration_s=0.25,
                        recovery_s=0.5, recovery_slowdown=1.7),
            OutageFault(shard_id=0, start_s=3.0, duration_s=0.1,
                        recovery_s=0.7, recovery_slowdown=2.6),
            OutageFault(shard_id=1, start_s=1.0, duration_s=0.5),
            OutageFault(shard_id=1, start_s=1.5, duration_s=0.5,
                        recovery_s=0.3, recovery_slowdown=1.9),
            OutageFault(shard_id=2, start_s=0.7),
        ),
        bit_flips=(
            BitFlipFault(shard_id=0, t_s=0.5, target="vr", vr=1, bit=2),
            BitFlipFault(shard_id=0, t_s=0.5, target="dma", burst_bits=2),
            BitFlipFault(shard_id=0, t_s=0.3, target="vr", vr=2, bit=1),
            BitFlipFault(shard_id=1, t_s=0.9, target="stuck", vr=3, bit=4),
            BitFlipFault(shard_id=1, t_s=0.9, target="stuck", vr=3, bit=5),
            BitFlipFault(shard_id=1, t_s=0.2, target="vr", vr=3, bit=5),
        ),
    )


class TestCompiledMatchesLinearScans:
    def test_stacked_stalls_and_recovery_ramps(self):
        plan = stacked_plan()
        inj = FaultInjector(plan, n_shards=4)
        # Inside both ramps and two stalls: every factor multiplies on.
        assert inj.multiplier_sources(0, 0.625) == ("stall", "recovery")
        assert inj.multiplier(0, 0.625) > 2.9 * 1.7 * 3.1
        rng = np.random.default_rng(0)
        assert_matches_linear_scans(plan, 4,
                                    rng.uniform(-0.5, 4.5, size=200))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_plans(self, seed):
        plan = FaultPlan.random(seed, 4, 1.0, stall_rate=3.0,
                                outage_rate=2.0, max_slowdown=4.0) \
            .merged_with(FaultPlan.random_bit_flips(
                seed, 4, 1.0, flip_rate=4.0, stuck_fraction=0.3))
        rng = np.random.default_rng(seed)
        assert_matches_linear_scans(plan, 5,
                                    rng.uniform(0.0, 1.5, size=100))

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           stall_rate=st.floats(0.0, 4.0), outage_rate=st.floats(0.0, 3.0),
           permanent_fraction=st.floats(0.0, 1.0),
           flip_rate=st.floats(0.0, 5.0),
           times=st.lists(st.floats(-0.25, 1.5), max_size=20))
    def test_drawn_plans(self, seed, stall_rate, outage_rate,
                         permanent_fraction, flip_rate, times):
        plan = FaultPlan.random(seed, 3, 1.0, stall_rate=stall_rate,
                                outage_rate=outage_rate,
                                permanent_fraction=permanent_fraction,
                                max_slowdown=6.0) \
            .merged_with(FaultPlan.random_bit_flips(
                seed, 3, 1.0, flip_rate=flip_rate, stuck_fraction=0.25))
        assert_matches_linear_scans(plan, 3, times)


class TestCalmUntil:
    def test_window_ends_at_the_next_scripted_edge(self):
        inj = FaultInjector(stacked_plan(), n_shards=4)
        # Shard 0: ramps, stalls and a restart until 3.7; then calm.
        assert inj.calm_until(0, 2.9) == 3.0       # after the last stall
        assert inj.calm_until(0, 3.0) == 3.0       # on an outage start
        assert inj.calm_until(0, 3.1) == 3.1       # outage end: ramp opens
        assert inj.calm_until(0, 3.8) == math.inf  # past the ramp end
        assert inj.calm_until(0, 3.1 + 0.7) == math.inf  # on the ramp end
        # Shard 1: a stall edge, then the stuck-at onset at 0.9.
        assert inj.calm_until(1, 0.0) == 0.1
        assert inj.calm_until(1, 0.1) == 0.1       # on a stall start
        assert inj.calm_until(1, 0.4) == 0.9       # on the stall end
        assert inj.calm_until(1, 0.9) == 0.9       # on the stuck onset
        # Shard 2 goes dark forever at 0.7; shard 3 is never touched.
        assert inj.calm_until(2, 0.0) == 0.7
        assert inj.calm_until(2, 0.7) == 0.7
        assert inj.calm_until(3, 5.0) == math.inf

    def test_transient_flips_do_not_end_the_window(self):
        inj = FaultInjector(FaultPlan(bit_flips=(
            BitFlipFault(shard_id=0, t_s=1.0, target="vr", vr=4, bit=3),)),
            n_shards=1)
        assert inj.calm_until(0, 0.5) == math.inf

    def test_stacked_plan(self):
        rng = np.random.default_rng(1)
        assert_calm_windows_sound(stacked_plan(), 4,
                                  rng.uniform(-0.5, 4.5, size=200))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_plans(self, seed):
        plan = FaultPlan.random(seed, 4, 1.0, stall_rate=3.0,
                                outage_rate=2.0, max_slowdown=4.0) \
            .merged_with(FaultPlan.random_bit_flips(
                seed, 4, 1.0, flip_rate=4.0, stuck_fraction=0.3))
        rng = np.random.default_rng(seed)
        assert_calm_windows_sound(plan, 5, rng.uniform(0.0, 1.5, size=100))

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           stall_rate=st.floats(0.0, 4.0), outage_rate=st.floats(0.0, 3.0),
           permanent_fraction=st.floats(0.0, 1.0),
           flip_rate=st.floats(0.0, 5.0),
           times=st.lists(st.floats(-0.25, 1.5), max_size=20))
    def test_drawn_plans(self, seed, stall_rate, outage_rate,
                         permanent_fraction, flip_rate, times):
        plan = FaultPlan.random(seed, 3, 1.0, stall_rate=stall_rate,
                                outage_rate=outage_rate,
                                permanent_fraction=permanent_fraction,
                                max_slowdown=6.0) \
            .merged_with(FaultPlan.random_bit_flips(
                seed, 3, 1.0, flip_rate=flip_rate, stuck_fraction=0.25))
        assert_calm_windows_sound(plan, 3, times)

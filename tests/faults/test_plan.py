"""Fault-plan data model: validation, serialization, seeded chaos."""

import math
import pathlib
import re

import pytest

from repro.faults import BitFlipFault, FaultPlan, OutageFault, StallFault

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


class TestStallFault:
    def test_end_time(self):
        stall = StallFault(shard_id=0, start_s=1.0, duration_s=0.5,
                           slowdown=2.0)
        assert stall.end_s == 1.5

    @pytest.mark.parametrize("kwargs", [
        dict(shard_id=-1, start_s=0.0, duration_s=1.0, slowdown=2.0),
        dict(shard_id=0.5, start_s=0.0, duration_s=1.0, slowdown=2.0),
        dict(shard_id=True, start_s=0.0, duration_s=1.0, slowdown=2.0),
        dict(shard_id=0, start_s=-1.0, duration_s=1.0, slowdown=2.0),
        dict(shard_id=0, start_s=math.inf, duration_s=1.0, slowdown=2.0),
        dict(shard_id=0, start_s=0.0, duration_s=0.0, slowdown=2.0),
        dict(shard_id=0, start_s=0.0, duration_s=math.inf, slowdown=2.0),
        dict(shard_id=0, start_s=0.0, duration_s=1.0, slowdown=0.5),
        dict(shard_id=0, start_s=0.0, duration_s=1.0, slowdown=math.nan),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            StallFault(**kwargs)


class TestOutageFault:
    def test_defaults_to_permanent(self):
        outage = OutageFault(shard_id=1, start_s=2.0)
        assert outage.permanent
        assert math.isinf(outage.end_s)

    def test_transient_end(self):
        outage = OutageFault(shard_id=1, start_s=2.0, duration_s=1.0)
        assert not outage.permanent
        assert outage.end_s == 3.0

    def test_permanent_outage_rejects_recovery_window(self):
        with pytest.raises(ValueError, match="recovery"):
            OutageFault(shard_id=0, start_s=0.0, recovery_s=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(shard_id=-2, start_s=0.0),
        dict(shard_id=0, start_s=-0.1),
        dict(shard_id=0, start_s=0.0, duration_s=-1.0),
        dict(shard_id=0, start_s=0.0, duration_s=1.0, recovery_s=-1.0),
        dict(shard_id=0, start_s=0.0, duration_s=1.0,
             recovery_slowdown=0.9),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            OutageFault(**kwargs)


class TestFaultPlan:
    def make_plan(self):
        return FaultPlan(
            stalls=(StallFault(shard_id=1, start_s=0.1, duration_s=0.2,
                               slowdown=3.0),),
            outages=(OutageFault(shard_id=3, start_s=0.5, duration_s=0.1,
                                 recovery_s=0.05, recovery_slowdown=2.0),
                     OutageFault(shard_id=0, start_s=1.0)),
        )

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan().n_faults == 0
        assert self.make_plan()
        assert self.make_plan().n_faults == 3

    def test_shard_ids_sorted_distinct(self):
        assert self.make_plan().shard_ids() == (0, 1, 3)

    def test_validate_for_rejects_out_of_range_shards(self):
        plan = self.make_plan()
        plan.validate_for(4)  # ok
        with pytest.raises(ValueError, match=r"shard ids \[3\]"):
            plan.validate_for(3)
        with pytest.raises(ValueError, match="1 shard"):
            plan.validate_for(1)

    def test_for_shard_filters(self):
        sub = self.make_plan().for_shard(3)
        assert sub.shard_ids() == (3,)
        assert len(sub.outages) == 1 and not sub.stalls

    def test_json_round_trip(self):
        plan = self.make_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_permanent_outage_serializes_as_null(self):
        plan = self.make_plan()
        assert '"duration_s": null' in plan.to_json()
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.outages[1].permanent

    def test_file_round_trip(self, tmp_path):
        plan = self.make_plan()
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"stalls": [], "chaos": []})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            FaultPlan.from_dict([1, 2, 3])

    @pytest.mark.parametrize("data, message", [
        ({"outages": [{"shard_id": 0}]},
         r"outages\[0\]: missing field 'start_s'"),
        ({"outages": 5}, "'outages' must be a list of objects, got int"),
        ({"stalls": [{"shard_id": 0, "start_s": 0.1, "duration_s": None,
                      "slowdown": 2.0}]},
         r"stalls\[0\]: field 'duration_s' must be a number, got None"),
    ])
    def test_from_dict_names_the_bad_entry_and_field(self, data, message):
        # These used to escape as a bare KeyError / TypeError.
        with pytest.raises(ValueError, match=message):
            FaultPlan.from_dict(data)

    @pytest.mark.parametrize("section, entry, message", [
        ("stalls", {"shard_id": 1.7},
         "field 'shard_id' must be an integer, got 1.7"),
        ("stalls", {"shard_id": 1.0}, "field 'shard_id' must be an integer"),
        ("outages", {"shard_id": True},
         "field 'shard_id' must be an integer, got True"),
        ("outages", {"shard_id": "3"},
         "field 'shard_id' must be an integer, got '3'"),
        ("outages", {"start_s": "0.5"},
         "field 'start_s' must be a number, got '0.5'"),
        ("outages", {"start_s": False},
         "field 'start_s' must be a number, got False"),
        ("outages", {"duration_s": "1"},
         "field 'duration_s' must be a number or null, got '1'"),
        ("stalls", {"slowdown": 10 ** 400},
         "field 'slowdown' must be a number"),
        ("bit_flips", {"target": 1}, "field 'target' must be a string"),
        ("bit_flips", {"vr": 4.0}, "field 'vr' must be an integer"),
        ("bit_flips", {"burst_bits": True},
         "field 'burst_bits' must be an integer"),
    ])
    def test_from_dict_rejects_mistyped_fields(self, section, entry,
                                               message):
        """Fields are type-checked, never coerced: ``1.7`` is not shard
        1, and ``true`` and ``"3"`` are not integers."""
        valid = {"stalls": {"shard_id": 0, "start_s": 0.0,
                            "duration_s": 0.1, "slowdown": 2.0},
                 "outages": {"shard_id": 0, "start_s": 0.0},
                 "bit_flips": {"shard_id": 0, "t_s": 0.0}}
        FaultPlan.from_dict({section: [valid[section]]})
        with pytest.raises(ValueError,
                           match=re.escape(f"{section}[0]: {message}")):
            FaultPlan.from_dict({section: [{**valid[section], **entry}]})

    def test_from_dict_rejects_unknown_entry_fields(self):
        """A misspelled field is an error, not a silently kept default."""
        entry = {"shard_id": 0, "start_s": 0.1, "duration_s": 0.2,
                 "recovery_slowdwn": 4.0}
        with pytest.raises(ValueError, match=re.escape(
                "outages[0]: unknown field 'recovery_slowdwn'")):
            FaultPlan.from_dict({"outages": [entry]})

    def test_from_dict_takes_integers_for_numbers(self):
        plan = FaultPlan.from_dict({"stalls": [
            {"shard_id": 0, "start_s": 0, "duration_s": 1, "slowdown": 2}]})
        stall = plan.stalls[0]
        assert (stall.start_s, stall.duration_s, stall.slowdown) \
            == (0.0, 1.0, 2.0)
        assert all(isinstance(value, float) for value in
                   (stall.start_s, stall.duration_s, stall.slowdown))

    def test_random_and_example_plans_round_trip(self):
        plan = FaultPlan.random(seed=3, n_shards=4, horizon_s=1.0) \
            .merged_with(FaultPlan.random_bit_flips(
                seed=3, n_shards=4, horizon_s=1.0))
        assert plan.stalls and plan.outages and plan.bit_flips
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        for name in ("fault_plan.json", "bit_flip_plan.json"):
            example = FaultPlan.load(EXAMPLES / name)
            assert FaultPlan.from_dict(example.to_dict()) == example


class TestBitFlipFault:
    def test_defaults_and_persistence(self):
        flip = BitFlipFault(shard_id=0, t_s=0.5)
        assert flip.target == "vr" and not flip.persistent
        assert BitFlipFault(shard_id=0, t_s=0.5, target="stuck").persistent

    @pytest.mark.parametrize("kwargs", [
        dict(shard_id=-1, t_s=0.0),
        dict(shard_id=0, t_s=-0.1),
        dict(shard_id=0, t_s=math.inf),
        dict(shard_id=0, t_s=0.0, target="rowhammer"),
        dict(shard_id=0, t_s=0.0, vr=24),
        dict(shard_id=0, t_s=0.0, vr=-1),
        dict(shard_id=0, t_s=0.0, bit=16),
        dict(shard_id=0, t_s=0.0, bit=-1),
        dict(shard_id=0, t_s=0.0, element=-1),
        dict(shard_id=0, t_s=0.0, burst_bits=0),
        dict(shard_id=0, t_s=0.0, burst_bits=17),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            BitFlipFault(**kwargs)

    def test_plan_round_trip_with_flips(self):
        plan = FaultPlan(bit_flips=(
            BitFlipFault(shard_id=2, t_s=0.25, target="dma", vr=3, bit=9,
                         element=100, burst_bits=4),
            BitFlipFault(shard_id=0, t_s=0.5, target="stuck"),
        ))
        assert plan and plan.n_faults == 2
        assert plan.shard_ids() == (0, 2)
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert plan.for_shard(2).bit_flips == plan.bit_flips[:1]

    def test_flip_free_plan_omits_key(self):
        # Plans without bit flips serialize exactly as before PR 4.
        assert "bit_flips" not in FaultPlan().to_dict()

    def test_merged_with_unions_all_fault_kinds(self):
        base = FaultPlan(
            stalls=(StallFault(shard_id=0, start_s=0.0, duration_s=1.0,
                               slowdown=2.0),),
            outages=(OutageFault(shard_id=1, start_s=1.0),))
        flips = FaultPlan(bit_flips=(BitFlipFault(shard_id=2, t_s=0.5),))
        merged = base.merged_with(flips)
        assert merged.n_faults == 3
        assert merged.shard_ids() == (0, 1, 2)


class TestContradictionMatrix:
    """Rejection matrix for same-shard overlapping fault windows.

    Silently merging contradictory windows was the pre-PR-4 behavior;
    each LEGAL row pins a combination that must *stay* accepted.
    """

    def test_legal_transient_transient_overlap(self):
        FaultPlan(outages=(
            OutageFault(shard_id=1, start_s=2.0, duration_s=1.0),
            OutageFault(shard_id=1, start_s=2.5, duration_s=1.0),
        ))  # union semantics, no contradiction

    def test_legal_stall_overlapping_outage(self):
        FaultPlan(
            stalls=(StallFault(shard_id=0, start_s=1.0, duration_s=2.0,
                               slowdown=2.0),),
            outages=(OutageFault(shard_id=0, start_s=1.5, duration_s=1.0),))

    def test_legal_permanent_on_different_shard(self):
        FaultPlan(outages=(
            OutageFault(shard_id=0, start_s=1.0),
            OutageFault(shard_id=1, start_s=0.5, duration_s=2.0),
        ))

    def test_legal_transient_ending_at_permanent_start(self):
        FaultPlan(outages=(
            OutageFault(shard_id=0, start_s=1.0, duration_s=1.0),
            OutageFault(shard_id=0, start_s=2.0),
        ))  # half-open windows touch but do not overlap

    def test_legal_overlapping_permanents(self):
        FaultPlan(outages=(
            OutageFault(shard_id=0, start_s=1.0),
            OutageFault(shard_id=0, start_s=2.0),
        ))  # dark from 1.0 either way

    def test_rejects_restart_after_permanent_failure(self):
        with pytest.raises(ValueError, match="restart"):
            FaultPlan(outages=(
                OutageFault(shard_id=0, start_s=1.0),
                OutageFault(shard_id=0, start_s=1.5, duration_s=1.0),
            ))

    def test_rejects_transient_straddling_permanent_start(self):
        with pytest.raises(ValueError, match="restart"):
            FaultPlan(outages=(
                OutageFault(shard_id=0, start_s=0.5, duration_s=1.0),
                OutageFault(shard_id=0, start_s=1.0),
            ))

    def test_rejects_recovery_ramp_inside_other_outage(self):
        with pytest.raises(ValueError, match="recovery window"):
            FaultPlan(outages=(
                OutageFault(shard_id=1, start_s=2.0, duration_s=1.0,
                            recovery_s=0.5, recovery_slowdown=2.0),
                OutageFault(shard_id=1, start_s=2.5, duration_s=1.0),
            ))

    def test_rejects_recovery_ramp_into_permanent(self):
        with pytest.raises(ValueError, match="recovery window"):
            FaultPlan(outages=(
                OutageFault(shard_id=1, start_s=0.0, duration_s=1.0,
                            recovery_s=1.0, recovery_slowdown=3.0),
                OutageFault(shard_id=1, start_s=1.5),
            ))

    def test_merged_with_re_checks_consistency(self):
        a = FaultPlan(outages=(OutageFault(shard_id=0, start_s=1.0),))
        b = FaultPlan(outages=(
            OutageFault(shard_id=0, start_s=1.5, duration_s=1.0),))
        with pytest.raises(ValueError, match="contradictory"):
            a.merged_with(b)

    def test_random_plans_are_always_consistent(self):
        # The generator drops contradictory draws instead of emitting
        # plans its own constructor would reject.
        for seed in range(40):
            FaultPlan.random(seed=seed, n_shards=3, horizon_s=1.0,
                             outage_rate=4.0, permanent_fraction=0.5)


class TestRandomPlan:
    def test_same_seed_same_plan(self):
        a = FaultPlan.random(seed=7, n_shards=4, horizon_s=1.0)
        b = FaultPlan.random(seed=7, n_shards=4, horizon_s=1.0)
        assert a == b

    def test_different_seeds_eventually_differ(self):
        plans = {FaultPlan.random(seed=s, n_shards=4, horizon_s=1.0)
                 for s in range(5)}
        assert len(plans) > 1

    def test_faults_stay_in_range(self):
        plan = FaultPlan.random(seed=3, n_shards=3, horizon_s=2.0,
                                stall_rate=4.0, outage_rate=4.0)
        plan.validate_for(3)
        for stall in plan.stalls:
            assert 0.0 <= stall.start_s < 2.0
        for outage in plan.outages:
            assert 0.0 <= outage.start_s < 2.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            FaultPlan.random(seed=0, n_shards=0, horizon_s=1.0)
        with pytest.raises(ValueError):
            FaultPlan.random(seed=0, n_shards=2, horizon_s=0.0)


class TestRandomBitFlips:
    def test_same_seed_same_plan(self):
        kwargs = dict(seed=11, n_shards=4, horizon_s=1.0, flip_rate=3.0)
        assert (FaultPlan.random_bit_flips(**kwargs)
                == FaultPlan.random_bit_flips(**kwargs))

    def test_targets_and_ranges(self):
        plan = FaultPlan.random_bit_flips(seed=5, n_shards=3, horizon_s=2.0,
                                          flip_rate=8.0, dma_fraction=0.3,
                                          stuck_fraction=0.2)
        plan.validate_for(3)
        assert plan.bit_flips
        targets = {f.target for f in plan.bit_flips}
        assert targets <= {"vr", "dma", "stuck"}
        for flip in plan.bit_flips:
            assert 0.0 <= flip.t_s < 2.0
            if flip.target != "dma":
                assert flip.burst_bits == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            FaultPlan.random_bit_flips(seed=0, n_shards=0, horizon_s=1.0)
        with pytest.raises(ValueError):
            FaultPlan.random_bit_flips(seed=0, n_shards=2, horizon_s=1.0,
                                       dma_fraction=0.8, stuck_fraction=0.8)


class TestStuckCellDeduplication:
    """Regression: a wedged cell is one fault, not a stack of faults.

    Stuck-at corruption is an OR mask, so listing the same cell twice
    used to be silently idempotent in the functional model while the
    timing-only ECC judge would have counted two bits in a codeword --
    a fake detected-uncorrectable.  Duplicates are now a plan error.
    """

    def test_duplicate_stuck_cell_rejected(self):
        cell = dict(shard_id=1, target="stuck", vr=5, bit=0, element=7)
        with pytest.raises(ValueError, match="wedged twice"):
            FaultPlan(bit_flips=(
                BitFlipFault(t_s=0.01, **cell),
                BitFlipFault(t_s=0.25, **cell),
            ))

    def test_same_cell_different_vr_is_legal(self):
        FaultPlan(bit_flips=(
            BitFlipFault(shard_id=1, t_s=0.01, target="stuck", vr=4,
                         bit=0, element=7),
            BitFlipFault(shard_id=1, t_s=0.02, target="stuck", vr=5,
                         bit=0, element=7),
        ))

    def test_transient_repeats_are_legal(self):
        # Transients are consumed once each; hitting the same spot
        # twice is a real double-upset scenario.
        FaultPlan(bit_flips=(
            BitFlipFault(shard_id=1, t_s=0.01, target="vr", vr=4,
                         bit=0, element=7),
            BitFlipFault(shard_id=1, t_s=0.02, target="vr", vr=4,
                         bit=0, element=7),
        ))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_plans_never_duplicate_cells(self, seed):
        plan = FaultPlan.random_bit_flips(
            seed=seed, n_shards=2, horizon_s=4.0, flip_rate=40.0,
            stuck_fraction=0.9, dma_fraction=0.05)
        cells = [(f.shard_id, f.vr, f.element, f.bit)
                 for f in plan.bit_flips if f.persistent]
        assert len(cells) == len(set(cells))

    def test_dedup_preserves_seeded_determinism(self):
        kwargs = dict(seed=3, n_shards=2, horizon_s=4.0, flip_rate=40.0,
                      stuck_fraction=0.9, dma_fraction=0.05)
        assert (FaultPlan.random_bit_flips(**kwargs)
                == FaultPlan.random_bit_flips(**kwargs))

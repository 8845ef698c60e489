"""Top-k selection on the APU (the Table 8 "Top-K Aggregation" stage).

Selection runs in two levels: one ``max_subgrp`` ladder collapses each
score VR to its maximum (paid once per VR), the control processor keeps
the per-VR maxima in scalar registers, and each of the ``k`` rounds
extracts the current global winner -- locating it with an equality
marker, knocking it out, and re-laddering only the VR it came from.
All steps run genuinely on the simulator in functional mode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from ..core.params import APUParams, DEFAULT_PARAMS
from ..core.reduction_model import simulated_sg_add_cycles

if TYPE_CHECKING:
    from ..apu.device import APUDevice

__all__ = ["apu_topk", "topk_aggregation_cycles"]


def _ladder_max(device: APUDevice, vr: int) -> int:
    """Collapse one score VR to its maximum via the subgroup ladder."""
    g = device.core.gvml
    g.max_subgrp_u16(15, vr, device.params.vr_length, 1)
    return g.get_element(15, 0)


def apu_topk(device: APUDevice, score_vrs: List[int], k: int,
             valid_counts: List[int]) -> List[Tuple[int, int]]:
    """Exact top-k over score VRs already resident on the core.

    Parameters
    ----------
    device:
        Functional APU device whose core holds the score vectors.
    score_vrs:
        VR indices holding unsigned 16-bit scores.
    k:
        Number of results.
    valid_counts:
        Number of valid (non-padding) entries per score VR.

    Returns
    -------
    list of (global_chunk_index, score), best first; ties broken by
    the lower chunk index (matching the reference lexsort).  Global
    indices are assigned cumulatively: the entries of each score VR
    follow directly after the previous VR's ``valid_count`` entries.
    """
    if len(score_vrs) != len(valid_counts):
        raise ValueError("one valid count per score VR required")
    core = device.core
    g = core.gvml
    vlen = device.params.vr_length
    bases = {}
    running = 0
    for vr, valid in zip(score_vrs, valid_counts):
        bases[vr] = running
        running += valid

    # Mask padding to zero so it can never win (valid scores are > 0
    # for the quantized mini corpora).
    for vr, valid in zip(score_vrs, valid_counts):
        if valid < vlen:
            g.create_grp_index_u16(14, vlen)
            g.gt_imm_u16(7, 14, valid - 1)
            g.cpy_imm_16_msk(vr, 0, 7)

    # Level 1: one ladder per VR; maxima cached on the CP.
    maxima = {vr: _ladder_max(device, vr) for vr in score_vrs}

    results: List[Tuple[int, int]] = []
    for _ in range(k):
        # CP scans its scalar cache; first VR wins ties (lowest index).
        best_vr = max(score_vrs, key=lambda vr: (maxima[vr],
                                                 -score_vrs.index(vr)))
        best_value = maxima[best_vr]
        g.eq_imm_16(6, best_vr, best_value)
        position = g.first_marked_index(6)
        results.append((bases[best_vr] + position, best_value))
        # Knock the winner out and re-ladder only the affected VR.
        g.set_element(best_vr, position, 0)
        maxima[best_vr] = _ladder_max(device, best_vr)
    return results


def topk_aggregation_cycles(n_chunks: int, k: int = 5,
                            params: APUParams = DEFAULT_PARAMS) -> float:
    """Latency model of the aggregation stage at paper scale.

    One ladder per score VR plus one re-ladder and extraction chain per
    extracted result.
    """
    score_vrs = -(-n_chunks // params.vr_length)
    ladder = simulated_sg_add_cycles(
        params.vr_length, 1, params,
        op_cycles=params.compute.gt_u16 + params.movement.cpy,
    )
    extraction = (
        params.compute.eq_16 + params.compute.count_m
        + 3 * params.movement.pio_st_per_elem
    )
    return (score_vrs + k) * ladder + k * extraction

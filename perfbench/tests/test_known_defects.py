"""Defects of mavnav that the benchmark's inputs can reach.

Each test is a strict xfail: it fails while the defect stands and turns
into an unexpected pass, failing the suite, once it is fixed, so the
marker has to come off with the fix.
"""

import numpy as np
import pytest

from mavnav.delaunay import tetrahedralize
from perfbench import room


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="point location walk does not terminate on near-duplicate points")
def test_tetrahedralize_room_with_isotropic_noise():
    """Room surface landmarks, each observed from 8 keyframes with 1e-4 m
    isotropic noise. The repeated observations of one landmark are
    near-duplicates just above MERGE_RADIUS, and the Bowyer-Watson point
    location walk raises RuntimeError.

    map_room feeds tetrahedralize the stereo triangulation noise of
    `room.observe` (radial sigma grows with depth squared) because that is
    the noise the stack produces, not to avoid this defect.
    """
    rng = np.random.default_rng(0)
    world = room.make_room(0)
    landmarks = world.surface[rng.permutation(len(world.surface))[:300]]
    points = np.vstack([landmarks + rng.normal(0.0, 1e-4, landmarks.shape) for _ in range(8)])
    tetrahedralize(points)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="point location walk does not terminate in label_tets on room seed 171")
def test_map_room_seed_171_builds_a_sparse_map():
    """On room seed 171, with the stereo noise model, a ray walk of
    `label_tets` asks `TetMesh.locate` for the tet just behind its target,
    and that walk raises RuntimeError. map_room counts the failure
    against delaunay, charges every route as unanswered and goes on, so
    the pass returns instead of raising.
    """
    from perfbench import workloads

    res = workloads.run_map_room(workloads.setup_map_room(171))
    assert res.failures == {}, res.failures

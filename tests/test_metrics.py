import math

import numpy as np
import pytest

from mavnav.geometry import Pose, Quat, compose
from mavnav.grid import FREE, OCCUPIED, OccupancyGrid
from mavnav.metrics import (
    CollisionConfusion,
    RelErrorReport,
    mcc_eval,
    mcc_from_confusion,
    recovery_time,
    rel_trans_error,
    rms,
)

# (false, missed, correct-collision, correct-free) columns of the paper's
# detailed collision table, with the published per-dataset MCC values
PUBLISHED_ROWS = [
    # dataset, method, false, missed, correct_coll, correct_free, mcc
    ("d1", "octomap", 27.57, 0.00, 54.13, 18.29, 0.514),
    ("d1", "sparse", 5.78, 0.11, 54.02, 40.07, 0.886),
    ("d2", "octomap", 23.76, 0.00, 51.84, 24.40, 0.589),
    ("d2", "sparse", 4.67, 0.67, 51.17, 43.49, 0.896),
    ("d3", "octomap", 24.17, 0.00, 52.30, 23.53, 0.581),
    ("d3", "sparse", 2.75, 0.39, 51.90, 44.95, 0.938),
]


def test_sparse_map_of_the_room_meets_the_papers_bounds():
    """The sparse map of the benchmark's room on seeds 101-110, built as
    map_room builds it: median MCC at least 0.80, and on every seed no
    more missed collisions than the paper's sparse rows have (0.67 %)."""
    from mavnav import delaunay, reconstruction
    from perfbench import room as rooms

    max_missed = max(row[3] for row in PUBLISHED_ROWS if row[1] == "sparse")
    mccs = []
    for seed in range(101, 111):
        room = rooms.make_room(seed)
        mesh = delaunay.tetrahedralize(np.vstack([kf.points for kf in room.keyframes]))
        reconstruction.label_tets(mesh, room.keyframes)
        surface = reconstruction.extract_surface(mesh)
        sparse = reconstruction.rasterize(mesh, surface, rooms.RESOLUTION, rooms.BOUNDS)
        conf, mcc = mcc_eval(rooms.ground_truth_grid(room.pillars), sparse)
        assert conf.missed_collision <= max_missed, (seed, conf)
        mccs.append(mcc)
    assert np.median(mccs) >= 0.80, mccs


class TestMcc:
    @pytest.mark.parametrize("row", PUBLISHED_ROWS, ids=lambda r: f"{r[0]}-{r[1]}")
    def test_published_confusions_reproduce_mcc(self, row):
        _, _, fp, fn, tp, tn, expected = row
        conf = CollisionConfusion(tp, fn, tn, fp)
        assert mcc_from_confusion(conf) == pytest.approx(expected, abs=0.005)

    def test_identity_grids(self):
        g = OccupancyGrid((0, 0, 0), 0.2, (12, 12, 8))
        states = np.full((12, 12, 8), FREE, dtype=np.uint8)
        states[4:7, 4:7, 2:5] = OCCUPIED
        g.set_states(states)
        conf, mcc = mcc_eval(g, g.copy())
        assert mcc == 1.0
        assert conf.missed_collision == 0.0
        assert conf.false_collision == 0.0

    def test_percentages_reject_bad_counts(self):
        pct = CollisionConfusion(30, 10, 50, 10).percentages()
        assert (pct.correct_collision, pct.total) == (30.0, 100.0)
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError):
                CollisionConfusion(30, bad, 50, 10).percentages()

    def test_degenerate_confusion_is_zero(self):
        assert mcc_from_confusion(CollisionConfusion(10, 0, 0, 0)) == 0.0

    def test_relabel_invariance_of_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tp, fn, tn, fp = rng.uniform(0.1, 60, 4)
            direct = mcc_from_confusion(CollisionConfusion(tp, fn, tn, fp))
            # swapping the collision/free class meaning permutes quadrants
            swapped = mcc_from_confusion(CollisionConfusion(tn, fp, tp, fn))
            assert direct == pytest.approx(swapped, abs=1e-12)

    def test_relabel_invariance_single_voxel_sweep(self):
        # with a one-voxel box the sweep commutes with relabeling exactly
        rng = np.random.default_rng(3)
        dims = (14, 10, 8)
        gt = OccupancyGrid((0, 0, 0), 0.25, dims)
        est = OccupancyGrid((0, 0, 0), 0.25, dims)
        gt.set_states(np.where(rng.random(dims) < 0.3, OCCUPIED, FREE).astype(np.uint8))
        est.set_states(np.where(rng.random(dims) < 0.3, OCCUPIED, FREE).astype(np.uint8))
        bbox = (0.25, 0.25, 0.25)
        _, mcc1 = mcc_eval(gt, est, bbox_dims=bbox)

        def swapped(g):
            s = g.states()
            out = np.where(s == OCCUPIED, FREE, OCCUPIED).astype(np.uint8)
            gg = OccupancyGrid(g.origin, g.resolution, g.dims)
            gg.set_states(out)
            return gg

        _, mcc2 = mcc_eval(swapped(gt), swapped(est), bbox_dims=bbox)
        assert mcc1 == pytest.approx(mcc2, abs=1e-12)

    def test_mismatched_grids_rejected(self):
        a = OccupancyGrid((0, 0, 0), 0.2, (5, 5, 5))
        b = OccupancyGrid((0, 0, 0), 0.25, (5, 5, 5))
        with pytest.raises(ValueError):
            mcc_eval(a, b)

    def test_counts_vs_brute_force_sweep(self):
        rng = np.random.default_rng(9)
        dims = (9, 8, 7)
        gt = OccupancyGrid((0, 0, 0), 0.5, dims)
        est = OccupancyGrid((0, 0, 0), 0.5, dims)
        gt.set_states(rng.integers(0, 3, dims).astype(np.uint8))
        est.set_states(rng.integers(0, 3, dims).astype(np.uint8))
        bbox = (1.0, 0.5, 1.5)
        conf, mcc = mcc_eval(gt, est, bbox_dims=bbox)

        # brute-force window sweep oracle
        window = tuple(int(round(d / 0.5)) for d in bbox)
        def hits(g):
            mask = g.obstacle_mask()
            out = []
            for i in range(dims[0] - window[0] + 1):
                for j in range(dims[1] - window[1] + 1):
                    for k in range(dims[2] - window[2] + 1):
                        out.append(
                            mask[i : i + window[0], j : j + window[1], k : k + window[2]].any()
                        )
            return np.array(out)

        hg, he = hits(gt), hits(est)
        tp = np.sum(hg & he)
        fn = np.sum(hg & ~he)
        tn = np.sum(~hg & ~he)
        fp = np.sum(~hg & he)
        oracle = CollisionConfusion(tp, fn, tn, fp)
        assert mcc == pytest.approx(mcc_from_confusion(oracle), abs=1e-12)
        np.testing.assert_allclose(
            [conf.correct_collision, conf.missed_collision, conf.correct_free, conf.false_collision],
            [100 * v / oracle.total for v in (tp, fn, tn, fp)],
            atol=1e-9,
        )


def straight_trajectory(n=801, step=0.1):
    return [Pose(np.array([i * step, 0.0, 1.0]), Quat.identity(), 0.05 * i) for i in range(n)]


class TestRelTransError:
    def test_identity(self):
        gt = straight_trajectory()
        report = rel_trans_error(gt, list(gt))
        assert report.complete
        for d, e in report.errors.items():
            assert e == pytest.approx(0.0, abs=1e-12)

    def test_linear_scale_gives_one_percent(self):
        gt = straight_trajectory()
        est = [Pose(p.position * 1.01, p.orientation, p.stamp) for p in gt]
        report = rel_trans_error(gt, est)
        assert report.complete
        for d, e in report.errors.items():
            assert e == pytest.approx(1.0, abs=1e-9)
        assert report.average == pytest.approx(1.0, abs=1e-9)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(12)
        gt = straight_trajectory(n=900)
        est = []
        drift = np.zeros(3)
        for p in gt:
            drift += rng.normal(0, 0.002, 3)
            est.append(Pose(p.position + drift, p.orientation, p.stamp))
        report = rel_trans_error(gt, est)

        # straightforward second implementation
        pos = np.array([p.position for p in gt])
        arc = np.concatenate([[0], np.cumsum(np.linalg.norm(np.diff(pos, axis=0), axis=1))])
        for d in report.errors:
            vals = []
            for i in range(len(gt)):
                j = i
                while j < len(gt) and arc[j] - arc[i] < d - 1e-9:
                    j += 1
                if j >= len(gt):
                    break
                t_gt = gt[j].position - gt[i].position  # identity orientations
                t_est = est[j].position - est[i].position
                vals.append(100 * np.linalg.norm(t_gt - t_est) / d)
            assert report.errors[d] == pytest.approx(np.mean(vals), abs=1e-9)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(5)
        gt = straight_trajectory(n=850)
        est = [
            Pose(p.position + rng.normal(0, 0.01, 3), p.orientation, p.stamp) for p in gt
        ]
        base = rel_trans_error(gt, est)
        t = Pose(np.array([4.0, -2.0, 7.0]), Quat.from_rotvec([0.4, -0.2, 1.1]), 0.0)
        gt2 = [compose(t, p) for p in gt]
        est2 = [compose(t, p) for p in est]
        moved = rel_trans_error(gt2, est2)
        for d in base.errors:
            assert moved.errors[d] == pytest.approx(base.errors[d], abs=1e-9)

    def test_short_trajectory_partial_report(self):
        gt = straight_trajectory(n=120)  # 11.9 m arc
        report = rel_trans_error(gt, list(gt))
        assert not report.complete
        assert set(report.errors) == {2.0, 5.0, 10.0}

    def test_length_mismatch_rejected(self):
        gt = straight_trajectory(n=50)
        with pytest.raises(ValueError):
            rel_trans_error(gt, gt[:-1])


class TestRmsMetrics:
    def test_sinusoid_rms(self):
        t = np.linspace(0, 10, 100001)  # 5 full periods of sin(pi t)
        amp = 0.7
        assert rms(amp * np.sin(math.pi * t)) == pytest.approx(amp / math.sqrt(2), abs=1e-5)

    def test_recovery_time_hand_computed(self):
        t = np.arange(0.0, 10.0, 0.01)
        err = np.where(t < 3.0, 0.02, np.maximum(0.25 - 0.05 * (t - 3.0), 0.01))
        # error exceeds 0.1 from t=3.0 until 0.25-0.05*(t-3)=0.1 -> t=6.0
        rec = recovery_time(t, err, onset=3.0)
        assert rec == pytest.approx(3.01, abs=0.011)

    def test_never_disturbed(self):
        t = np.arange(0.0, 5.0, 0.01)
        assert recovery_time(t, np.full_like(t, 0.05), onset=1.0) == 0.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            rms([])

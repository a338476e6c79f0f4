from collections import Counter

import numpy as np

from mavnav import scenarios
from mavnav.control import Controller
from mavnav.estimation import NavFilter
from mavnav.metrics import recovery_time, rms
from mavnav.scenarios import run_closed_loop, run_hover, run_wind_step, spline_ref_fn
from mavnav.simulation import Simulator
from mavnav.trajectory import spline_from_path

# Bounds from a sweep of seeds 0-9 with the default noise and gains:
# 10 s hover position RMS 0.016-0.053 m, wind-step recovery 0-3.69 s.


def test_hover_position_rms():
    log = run_hover(duration=10.0, seed=0)
    assert len(log.t) == 1000
    assert rms(log.position_error()) < 0.08


def test_wind_step_recovery():
    onset = 5.0
    log = run_wind_step(wind_speed=3.0, onset=onset, duration=15.0, seed=0)
    err = log.position_error()
    assert err.max() > 0.1  # the gust pushes the vehicle out of the band
    rec = recovery_time(log.times(), err, onset, threshold=0.1)
    assert rec is not None and rec < 5.0


def test_loop_calls_each_entry_point_once_per_tick(monkeypatch):
    """perfbench's tracer times the loop's layers by patching these names."""
    calls = Counter()
    for owner, name, key in [(Simulator, "step", "sim"), (NavFilter, "predict", "predict"),
                             (NavFilter, "correct", "correct"), (Controller, "step", "control"),
                             (scenarios, "eval_spline", "ref")]:
        def counted(*args, _call=getattr(owner, name), _key=key, **kw):
            calls[_key] += 1
            return _call(*args, **kw)
        monkeypatch.setattr(owner, name, counted)
    spline = spline_from_path(np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]]), np.array([0.0, 2.0]))
    log = run_closed_loop(spline_ref_fn(spline), 1.0)
    ticks = len(log.t)
    assert ticks == 100
    # one pose delivery per 0.1 s
    assert calls == Counter(sim=ticks, predict=ticks, control=ticks, ref=ticks, correct=10)

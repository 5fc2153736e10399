"""The host-probe normalisation of end-to-end times."""

import pytest

import run


def test_each_time_is_scaled_by_the_probes_around_it(monkeypatch, tmp_path):
    probes = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run, "probe", lambda work: next(probes))
    monkeypatch.setattr(run, "spawn", lambda args, work: (0, "out", 2.0, 1234))
    timer = run.ProbedTimer(tmp_path)
    code, stdout, elapsed, norm, rss = timer.run(["-c", "pass"])
    assert (code, stdout, elapsed, rss) == (0, "out", 2.0, 1234)
    assert norm == pytest.approx(2.0 * run.REFERENCE_PROBE_S / 0.2)
    assert timer.run(["-c", "pass"])[3] == pytest.approx(2.0 * run.REFERENCE_PROBE_S / 0.25)
    assert timer.probes == [0.1, 0.3, 0.2]

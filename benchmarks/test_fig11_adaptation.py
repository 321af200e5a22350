"""Figure 11 — performance gains by adapting the cluster size (B-1).

Paper shape: re-tuning the cluster size after the window area changes
by a factor of 100 recovers ~23 % with the simplest (complete-unit)
technique, but only ~6.5 % (threshold) / ~11 % (SLM) with the smarter
techniques — "an adaptation does not seem to be essential".
"""

from __future__ import annotations

GAIN_10, GAIN_100 = "gain factor 10 (%)", "gain factor 100 (%)"


def test_fig11_adaptation(run_figure):
    rows = run_figure("fig11", "fig11_adaptation")

    for r in rows:
        assert 0.0 <= r[GAIN_10] <= 60.0, r
        assert 0.0 <= r[GAIN_100] <= 60.0, r
        # A bigger workload shift leaves more on the table.
        assert r[GAIN_100] >= r[GAIN_10] - 3.0, r

    # The sophisticated techniques depend less on the cluster size than
    # the simplest one (the paper's core message for this figure).
    gain_100 = {r["technique"]: r[GAIN_100] for r in rows}
    smart_gain = max(gain_100["threshold"], gain_100["slm"])
    assert smart_gain <= gain_100["complete"] + 5.0

"""Tests for the Figure-4 scaling-law analysis."""

from repro.experiments import extrapolate


def test_speedup_grows_with_scale():
    rows = extrapolate.run(
        cases=(("uracil", 3),), scales=(0.08, 0.25), seed=0
    )
    assert len(rows) == 1
    row = rows[0]
    assert row.speedups[1] > row.speedups[0]
    assert row.alpha > 0
    # Extrapolated trend exceeds the biggest measured point.
    assert row.trend_at_paper_scale > row.speedups[-1]


def test_nnz_recorded_per_scale():
    rows = extrapolate.run(
        cases=(("nips", 2),), scales=(0.05, 0.15), seed=0
    )
    assert rows[0].nnz_y[0] < rows[0].nnz_y[1]
    assert rows[0].paper_nnz_y > rows[0].nnz_y[-1]


def _row(label, speedups, alpha, trend):
    return extrapolate.ScalingRow(
        label=label, nnz_y=[1, 2], speedups=speedups, alpha=alpha,
        paper_nnz_y=10, trend_at_paper_scale=trend,
    )


def test_interpretation_follows_the_data():
    text = extrapolate.interpretation([
        _row("flat", [11.6, 13.4], 0.02, 13.0),
        _row("growing", [8.4, 15.5], 0.44, 181.0),
        _row("above", [600.0, 700.0], 0.5, 900.0),
    ])
    assert "flat: 13.4x measured, 13x trend (exponent 0.02): no" in text
    assert "growing: 15.5x measured, 181x trend (exponent 0.44): yes" in text
    assert "above: 700.0x measured, 900x trend (exponent 0.50): no" in text

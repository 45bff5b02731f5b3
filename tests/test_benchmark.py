"""Tests for the fusion micro-benchmarks.

Timing magnitudes are machine dependent, so these tests pin down structure:
which rows appear, that the measured means are positive, and that the ratio
summary divides the right entries.
"""

import pytest

from trackfuse.benchmark import (
    BENCH_CSV_HEADER,
    bench_csv_text,
    bench_fusion,
    summarize_ratios,
)


@pytest.fixture(scope="module")
def rows():
    return bench_fusion(dims=(2, 3), counts=(1, 2), repeats=3, seed=5)


def test_bench_rows_cover_every_case(rows):
    gaussian = {(r["strategy"], r["size"]) for r in rows if r["case"] == "gaussian"}
    mixture = {(r["strategy"], r["size"]) for r in rows if r["case"] == "mixture"}
    assert gaussian == {(s, d) for s in ("naive", "gmd", "amd", "hmd")
                        for d in (2, 3)}
    assert mixture == {(s, c) for s in ("naive", "pcf", "hmd") for c in (1, 2)}
    assert len(rows) == 8 + 6


def test_bench_rows_have_positive_times(rows):
    for row in rows:
        assert row["mean_s"] > 0.0
        assert row["repeats"] == 3


def test_summarize_ratios_divides_matching_rows(rows):
    ratios = summarize_ratios(rows)
    assert set(ratios) == {"gaussian_hmd_over_gmd", "mixture_hmd_over_pcf"}
    assert set(ratios["gaussian_hmd_over_gmd"]) == {2, 3}
    assert set(ratios["mixture_hmd_over_pcf"]) == {1, 2}
    by_key = {(r["case"], r["strategy"], r["size"]): r["mean_s"] for r in rows}
    for dim, ratio in ratios["gaussian_hmd_over_gmd"].items():
        expected = by_key[("gaussian", "hmd", dim)] / by_key[("gaussian", "gmd", dim)]
        assert ratio == pytest.approx(expected)
    for count, ratio in ratios["mixture_hmd_over_pcf"].items():
        expected = by_key[("mixture", "hmd", count)] / by_key[("mixture", "pcf", count)]
        assert ratio == pytest.approx(expected)


def test_summarize_ratios_skips_missing_baselines():
    rows = [{"case": "gaussian", "strategy": "hmd", "size": 2,
             "mean_s": 1.0, "repeats": 1}]
    ratios = summarize_ratios(rows)
    assert ratios["gaussian_hmd_over_gmd"] == {}
    assert ratios["mixture_hmd_over_pcf"] == {}


def test_bench_csv_text_layout(rows):
    text = bench_csv_text(rows)
    lines = text.strip().split("\n")
    assert lines[0] == BENCH_CSV_HEADER
    assert lines[0] == "case,strategy,size,mean_s,repeats"
    assert len(lines) == 1 + len(rows)
    fields = lines[1].split(",")
    assert fields[0] == "gaussian"
    assert fields[1] == "naive"
    assert int(fields[2]) == 2
    assert float(fields[3]) > 0.0
    assert fields[4] == "3"
    assert text.endswith("\n")


def test_bench_is_reasonably_fast():
    import time
    tic = time.perf_counter()
    bench_fusion(dims=(2,), counts=(1,), repeats=2, seed=1)
    assert time.perf_counter() - tic < 5.0
